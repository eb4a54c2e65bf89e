/**
 * @file
 * Cyclic-redundancy checks for link-frame integrity. CABLE's
 * correctness depends on every compressed packet decoding against
 * bit-identical reference data, so a flipped wire bit silently
 * corrupts the reconstruction; the channel therefore appends a
 * CRC-8 (ATM HEC, poly 0x07) or CRC-16 (CCITT, poly 0x1021) to each
 * frame and the receiver NACKs on mismatch (DESIGN.md "Fault model
 * & recovery").
 *
 * Frames are bit-granular (compressed payloads rarely end on byte
 * boundaries), but with the default CRC-16 on every transfer the CRC
 * runs once per simulated line, so it is computed with table-driven
 * slice-by-8 over the BitVec's backing bytes: a bit-serial head up
 * to the first byte boundary, 8 bytes per step through the aligned
 * middle, and a bit-serial tail. The bit-serial formulation — one
 * XOR tree per link cycle, the hardware-natural shape — is kept as
 * crc8BitsSerial/crc16BitsSerial; both paths produce identical
 * values for every (begin, end) range and tests/test_simd.cc
 * cross-checks them on randomized frames.
 *
 * BitVec stores bits MSB-first within each byte, which matches the
 * MSB-first (non-reflected) CRC definition, so consuming a backing
 * byte whole is exactly eight serial steps. The trailer goes on with
 * one BitWriter::put and is checked against one positioned
 * BitVec::read at the body's end.
 */

#ifndef CABLE_COMMON_CRC_H
#define CABLE_COMMON_CRC_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/log.h"
#include "compress/bitstream.h"

namespace cable
{

namespace crc_detail
{

/** Advances a CRC-8 (poly 0x07) state by eight zero message bits. */
constexpr std::uint8_t
crc8Step(std::uint8_t state)
{
    for (int b = 0; b < 8; ++b)
        state = static_cast<std::uint8_t>(
            (state & 0x80u) ? (state << 1) ^ 0x07u : state << 1);
    return state;
}

/** Advances a CRC-16-CCITT (poly 0x1021) state by one zero byte. */
constexpr std::uint16_t
crc16StepByte(std::uint16_t state)
{
    for (int b = 0; b < 8; ++b)
        state = static_cast<std::uint16_t>(
            (state & 0x8000u) ? (state << 1) ^ 0x1021u : state << 1);
    return state;
}

/**
 * Slice tables: t[k][b] is the CRC (init 0) of byte b followed by k
 * zero bytes. Processing an 8-byte block is then eight independent
 * table lookups XORed together, with the incoming CRC state folded
 * into the first byte(s) of the block.
 */
struct Crc8Tables
{
    std::uint8_t t[8][256];
};

struct Crc16Tables
{
    std::uint16_t t[8][256];
};

constexpr Crc8Tables
makeCrc8Tables()
{
    Crc8Tables tb{};
    for (unsigned b = 0; b < 256; ++b)
        tb.t[0][b] = crc8Step(static_cast<std::uint8_t>(b));
    for (unsigned k = 1; k < 8; ++k)
        for (unsigned b = 0; b < 256; ++b)
            tb.t[k][b] = crc8Step(tb.t[k - 1][b]);
    return tb;
}

constexpr Crc16Tables
makeCrc16Tables()
{
    Crc16Tables tb{};
    for (unsigned b = 0; b < 256; ++b)
        tb.t[0][b] = crc16StepByte(
            static_cast<std::uint16_t>(b << 8));
    for (unsigned k = 1; k < 8; ++k)
        for (unsigned b = 0; b < 256; ++b)
            tb.t[k][b] = static_cast<std::uint16_t>(
                (tb.t[k - 1][b] << 8)
                ^ tb.t[0][tb.t[k - 1][b] >> 8]);
    return tb;
}

inline constexpr Crc8Tables kCrc8 = makeCrc8Tables();
inline constexpr Crc16Tables kCrc16 = makeCrc16Tables();

} // namespace crc_detail

/**
 * Bit-serial CRC-8, polynomial x^8+x^2+x+1 (0x07), init 0. The
 * hardware-reference formulation; kept for differential tests and
 * the micro_crc benchmark baseline.
 */
inline std::uint8_t
crc8BitsSerial(const BitVec &v, std::size_t begin, std::size_t end)
{
    std::uint8_t crc = 0;
    for (std::size_t i = begin; i < end; ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x80u : 0u)) & 0x80u;
        crc = static_cast<std::uint8_t>(crc << 1);
        if (msb)
            crc ^= 0x07;
    }
    return crc;
}

/** Bit-serial CRC-16-CCITT, polynomial 0x1021, init 0xffff. */
inline std::uint16_t
crc16BitsSerial(const BitVec &v, std::size_t begin, std::size_t end)
{
    std::uint16_t crc = 0xffff;
    for (std::size_t i = begin; i < end; ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x8000u : 0u)) & 0x8000u;
        crc = static_cast<std::uint16_t>(crc << 1);
        if (msb)
            crc ^= 0x1021;
    }
    return crc;
}

/** CRC-8, polynomial 0x07, init 0: table-driven over bits
 *  [begin, end). Bit-identical to crc8BitsSerial. */
inline std::uint8_t
crc8Bits(const BitVec &v, std::size_t begin, std::size_t end)
{
    std::uint8_t crc = 0;
    std::size_t i = begin;
    // Serial head until the cursor lands on a byte boundary.
    for (; i < end && (i & 7); ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x80u : 0u)) & 0x80u;
        crc = static_cast<std::uint8_t>(crc << 1);
        if (msb)
            crc ^= 0x07;
    }
    const std::uint8_t *bytes = v.data();
    const auto &t = crc_detail::kCrc8.t;
    while (end - i >= 64) {
        const std::uint8_t *p = bytes + (i >> 3);
        crc = static_cast<std::uint8_t>(
            t[7][p[0] ^ crc] ^ t[6][p[1]] ^ t[5][p[2]] ^ t[4][p[3]]
            ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
        i += 64;
    }
    while (end - i >= 8) {
        crc = t[0][bytes[i >> 3] ^ crc];
        i += 8;
    }
    for (; i < end; ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x80u : 0u)) & 0x80u;
        crc = static_cast<std::uint8_t>(crc << 1);
        if (msb)
            crc ^= 0x07;
    }
    return crc;
}

/** CRC-16-CCITT, polynomial 0x1021, init 0xffff: table-driven over
 *  bits [begin, end). Bit-identical to crc16BitsSerial. */
inline std::uint16_t
crc16Bits(const BitVec &v, std::size_t begin, std::size_t end)
{
    std::uint16_t crc = 0xffff;
    std::size_t i = begin;
    for (; i < end && (i & 7); ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x8000u : 0u)) & 0x8000u;
        crc = static_cast<std::uint16_t>(crc << 1);
        if (msb)
            crc ^= 0x1021;
    }
    const std::uint8_t *bytes = v.data();
    const auto &t = crc_detail::kCrc16.t;
    while (end - i >= 64) {
        const std::uint8_t *p = bytes + (i >> 3);
        crc = static_cast<std::uint16_t>(
            t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xffu)]
            ^ t[5][p[2]] ^ t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]]
            ^ t[1][p[6]] ^ t[0][p[7]]);
        i += 64;
    }
    while (end - i >= 8) {
        crc = static_cast<std::uint16_t>(
            (crc << 8) ^ t[0][(crc >> 8) ^ bytes[i >> 3]]);
        i += 8;
    }
    for (; i < end; ++i) {
        bool msb = (crc ^ (v.bit(i) ? 0x8000u : 0u)) & 0x8000u;
        crc = static_cast<std::uint16_t>(crc << 1);
        if (msb)
            crc ^= 0x1021;
    }
    return crc;
}

/** Frame CRC of width 8 or 16 over bits [begin, end). */
inline std::uint16_t
frameCrc(const BitVec &v, std::size_t begin, std::size_t end,
         unsigned crc_bits)
{
    if (crc_bits == 8)
        return crc8Bits(v, begin, end);
    if (crc_bits == 16)
        return crc16Bits(v, begin, end);
    panic("frameCrc: unsupported CRC width %u", crc_bits);
}

/** Bit-serial frameCrc; reference for differential tests. */
inline std::uint16_t
frameCrcSerial(const BitVec &v, std::size_t begin, std::size_t end,
               unsigned crc_bits)
{
    if (crc_bits == 8)
        return crc8BitsSerial(v, begin, end);
    if (crc_bits == 16)
        return crc16BitsSerial(v, begin, end);
    panic("frameCrcSerial: unsupported CRC width %u", crc_bits);
}

/** Appends the frame CRC of @p bw's current contents to @p bw. */
inline void
appendFrameCrc(BitWriter &bw, unsigned crc_bits)
{
    std::uint16_t crc = frameCrc(bw.bits(), 0, bw.sizeBits(), crc_bits);
    bw.put(crc, crc_bits);
}

/**
 * Verifies a frame whose last @p crc_bits bits are its CRC.
 * Returns false on truncated frames (shorter than the CRC itself),
 * which a burst error can produce in principle.
 */
inline bool
checkFrameCrc(const BitVec &frame, unsigned crc_bits)
{
    if (frame.sizeBits() < crc_bits)
        return false;
    std::size_t body = frame.sizeBits() - crc_bits;
    std::uint16_t want = frameCrc(frame, 0, body, crc_bits);
    return want == frame.read(body, crc_bits);
}

} // namespace cable

#endif // CABLE_COMMON_CRC_H
