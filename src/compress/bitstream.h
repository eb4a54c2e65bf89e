/**
 * @file
 * Bit-granular streams used by every compression engine, the link
 * frame and the checkpoint image. Encoders emit into a BitWriter;
 * decoders consume from a BitReader. The backing BitVec records the
 * exact encoded length in bits, which is what the link model
 * quantizes into flits.
 *
 * Layout: bits are packed MSB-first into bytes, and the unused tail
 * of the last byte is always zero, so byte-wise consumers (the
 * table-driven CRC in common/crc.h, checkpoint files) see a
 * canonical image. Every field write, copy and read is built from
 * two word-granular BitVec primitives — append() of up to 64 bits
 * and read() of up to 64 bits at any bit offset — which move whole
 * bytes/words rather than looping per bit. A BitWriter reserves one
 * frame of capacity up front, so a stream of up to a line plus its
 * header and CRC costs one allocation.
 */

#ifndef CABLE_COMPRESS_BITSTREAM_H
#define CABLE_COMPRESS_BITSTREAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace cable
{

/**
 * Initial BitWriter capacity: a 64-byte line plus slack for the
 * frame header and CRC (and for engines whose worst-case DIFF runs a
 * few bytes past the raw line).
 */
inline constexpr std::size_t kStreamReserveBytes = kLineBytes + 16;

/** A sequence of bits, MSB-first within each stored byte. */
class BitVec
{
  public:
    std::size_t sizeBits() const { return num_bits_; }
    bool empty() const { return num_bits_ == 0; }

    bool
    bit(std::size_t i) const
    {
        if (i >= num_bits_)
            panic("BitVec::bit: index %zu out of %zu", i, num_bits_);
        return (bytes_[i >> 3] >> (7 - (i & 7))) & 1;
    }

    void pushBit(bool b) { append(b ? 1 : 0, 1); }

    /**
     * Appends the low @p nbits (at most 64) bits of @p value, most
     * significant first; bits above @p nbits are ignored.
     */
    void
    append(std::uint64_t value, unsigned nbits)
    {
        if (nbits > 64)
            panic("BitVec::append: nbits=%u", nbits);
        if (nbits == 0)
            return;
        std::size_t at = num_bits_ >> 3;
        unsigned used = num_bits_ & 7; // bits taken in bytes_[at]
        num_bits_ += nbits;
        bytes_.resize((num_bits_ + 7) >> 3); // new bytes are zero
        std::uint8_t *p = bytes_.data() + at;
        // Left-justify the field, then OR it in behind the used bits
        // of the first byte: its top 64-used bits cover at most eight
        // bytes, and a field crossing the word spills into a ninth.
        value <<= 64 - nbits;
        std::uint64_t head = value >> used;
        std::size_t nbytes = bytes_.size() - at;
        for (std::size_t k = 0; k < nbytes && k < 8; ++k)
            p[k] |= static_cast<std::uint8_t>(head >> (56 - 8 * k));
        if (used + nbits > 64)
            p[8] = static_cast<std::uint8_t>(value << (8 - used));
    }

    /**
     * Reads @p nbits (at most 64) bits starting at bit @p pos as an
     * unsigned value; the range must lie inside the vector.
     */
    std::uint64_t
    read(std::size_t pos, unsigned nbits) const
    {
        if (nbits > 64 || pos > num_bits_ || nbits > num_bits_ - pos)
            panic("BitVec::read: %u bits at %zu out of %zu", nbits, pos,
                  num_bits_);
        if (nbits == 0)
            return 0;
        const std::uint8_t *p = bytes_.data() + (pos >> 3);
        unsigned skip = pos & 7;
        std::size_t avail = bytes_.size() - (pos >> 3);
        // The first eight bytes, big-endian; a short tail is zero-
        // filled (its bits lie past the end and are never returned).
        std::uint64_t w = 0;
        if (avail >= 8) {
            for (unsigned k = 0; k < 8; ++k)
                w = (w << 8) | p[k];
        } else {
            for (std::size_t k = 0; k < avail; ++k)
                w |= std::uint64_t{p[k]} << (56 - 8 * k);
        }
        w <<= skip;
        if (skip + nbits > 64)
            w |= p[8] >> (8 - skip);
        return w >> (64 - nbits);
    }

    /** Inverts bit @p i; used by the link fault injector. */
    void
    flipBit(std::size_t i)
    {
        if (i >= num_bits_)
            panic("BitVec::flipBit: index %zu out of %zu", i,
                  num_bits_);
        bytes_[i >> 3] ^= static_cast<std::uint8_t>(1u << (7 - (i & 7)));
    }

    void
    clear()
    {
        bytes_.clear();
        num_bits_ = 0;
    }

    /** Pre-sizes the backing store for @p nbits bits. */
    void
    reserveBits(std::size_t nbits)
    {
        bytes_.reserve((nbits + 7) >> 3);
    }

    /**
     * Raw backing bytes (ceil(sizeBits/8) of them), bits MSB-first
     * within each byte. Lets byte-at-a-time consumers — the
     * table-driven CRC in common/crc.h — skip the per-bit accessor.
     */
    const std::uint8_t *data() const { return bytes_.data(); }

    /**
     * Count of 0→1/1→0 transitions when the stream is serialized over
     * a @p width bit bus; used for the bit-toggle study (§VI-D).
     */
    std::uint64_t toggleCount(unsigned width) const;

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t num_bits_ = 0;
};

/** Appends fields of up to 64 bits, most significant bit first. */
class BitWriter
{
  public:
    BitWriter() { vec_.reserveBits(kStreamReserveBytes * 8); }

    /** Appends the low @p nbits (at most 64) bits of @p value. */
    void
    put(std::uint64_t value, unsigned nbits)
    {
        vec_.append(value, nbits);
    }

    /** Appends every bit of @p other. */
    void
    appendBits(const BitVec &other)
    {
        appendBits(other, 0, other.sizeBits());
    }

    /** Appends bits [@p begin, @p end) of @p other, 64 at a time. */
    void
    appendBits(const BitVec &other, std::size_t begin, std::size_t end)
    {
        if (begin > end)
            panic("BitWriter::appendBits: range [%zu, %zu)", begin,
                  end);
        while (begin < end) {
            unsigned n = end - begin < 64
                             ? static_cast<unsigned>(end - begin)
                             : 64u;
            vec_.append(other.read(begin, n), n);
            begin += n;
        }
    }

    std::size_t sizeBits() const { return vec_.sizeBits(); }
    const BitVec &bits() const { return vec_; }
    BitVec take() { return std::move(vec_); }

  private:
    BitVec vec_;
};

/** Sequential reader over a BitVec. */
class BitReader
{
  public:
    explicit BitReader(const BitVec &vec) : vec_(vec) {}

    /** Reads the next @p nbits (at most 64) bits as an unsigned
     *  value; reading past the end panics. */
    std::uint64_t
    get(unsigned nbits)
    {
        std::uint64_t v = vec_.read(pos_, nbits);
        pos_ += nbits;
        return v;
    }

    std::size_t pos() const { return pos_; }
    bool exhausted() const { return pos_ >= vec_.sizeBits(); }
    std::size_t remaining() const { return vec_.sizeBits() - pos_; }

  private:
    const BitVec &vec_;
    std::size_t pos_ = 0;
};

} // namespace cable

#endif // CABLE_COMPRESS_BITSTREAM_H
