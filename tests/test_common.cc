/**
 * @file
 * Unit tests for the common substrate: bit utilities, the CacheLine
 * value type, bitstreams, deterministic RNG and the stats package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bitops.h"
#include "common/line.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "compress/bitstream.h"

using namespace cable;

TEST(Bitops, TrivialWordZeros)
{
    EXPECT_TRUE(isTrivialWord(0));
    EXPECT_TRUE(isTrivialWord(0xff));       // 24 leading zeros
    EXPECT_TRUE(isTrivialWord(0x01));
    EXPECT_FALSE(isTrivialWord(0x100));     // 23 leading zeros
    EXPECT_FALSE(isTrivialWord(0x80000000));
}

TEST(Bitops, TrivialWordOnes)
{
    EXPECT_TRUE(isTrivialWord(0xffffffff));
    EXPECT_TRUE(isTrivialWord(0xffffff00)); // 24 leading ones
    EXPECT_TRUE(isTrivialWord(0xffffff7f));
    EXPECT_FALSE(isTrivialWord(0xfffffe00)); // 23 leading ones
}

TEST(Bitops, TrivialThresholdConfigurable)
{
    EXPECT_TRUE(isTrivialWord(0x0000ffff, 16));
    EXPECT_FALSE(isTrivialWord(0x0000ffff, 24));
}

TEST(Bitops, BitsToIndex)
{
    EXPECT_EQ(bitsToIndex(0), 0u);
    EXPECT_EQ(bitsToIndex(1), 0u);
    EXPECT_EQ(bitsToIndex(2), 1u);
    EXPECT_EQ(bitsToIndex(3), 2u);
    EXPECT_EQ(bitsToIndex(16), 4u);
    EXPECT_EQ(bitsToIndex(17), 5u);
    EXPECT_EQ(bitsToIndex(1u << 20), 20u);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 16), 0u);
    EXPECT_EQ(ceilDiv(1, 16), 1u);
    EXPECT_EQ(ceilDiv(16, 16), 1u);
    EXPECT_EQ(ceilDiv(17, 16), 2u);
    EXPECT_EQ(ceilDiv(512, 16), 32u);
}

TEST(Bitops, CeilDivNearMax)
{
    // The naive (a + b - 1) / b form wraps here and returns 0.
    EXPECT_EQ(ceilDiv(UINT64_MAX, 16), (UINT64_MAX >> 4) + 1);
    EXPECT_EQ(ceilDiv(UINT64_MAX, 1), UINT64_MAX);
    EXPECT_EQ(ceilDiv(UINT64_MAX - 14, 16), (UINT64_MAX >> 4) + 1);
}

TEST(Bitops, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(1000));
}

TEST(Types, LineAlign)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNumber(128), 2u);
}

TEST(Types, LineIDEquality)
{
    LineID a(3, 1), b(3, 1), c(3, 2);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, kInvalidLineID);
    EXPECT_EQ(LineID{}, kInvalidLineID);
    EXPECT_EQ(a.pack(8), 3u * 8 + 1);
}

TEST(CacheLine, WordAccessors)
{
    CacheLine l;
    EXPECT_TRUE(l.isZero());
    l.setWord(3, 0xdeadbeef);
    EXPECT_EQ(l.word(3), 0xdeadbeefu);
    EXPECT_FALSE(l.isZero());
    EXPECT_EQ(l.byte(12), 0xefu); // little-endian
    l.setWord64(0, 0x0123456789abcdefull);
    EXPECT_EQ(l.word64(0), 0x0123456789abcdefull);
    EXPECT_EQ(l.word(0), 0x89abcdefu);
    EXPECT_EQ(l.word(1), 0x01234567u);
}

TEST(CacheLine, FilledAndEquality)
{
    CacheLine a = CacheLine::filledWords(0x42);
    CacheLine b = CacheLine::filledWords(0x42);
    EXPECT_EQ(a, b);
    b.setByte(0, 0x43);
    EXPECT_NE(a, b);
    EXPECT_NE(a.contentHash(), b.contentHash());
}

TEST(CacheLine, FromBytesRoundTrip)
{
    std::uint8_t raw[kLineBytes];
    for (unsigned i = 0; i < kLineBytes; ++i)
        raw[i] = static_cast<std::uint8_t>(i * 7 + 1);
    CacheLine l = CacheLine::fromBytes(raw);
    for (unsigned i = 0; i < kLineBytes; ++i)
        EXPECT_EQ(l.byte(i), raw[i]);
}

TEST(CacheLine, ToStringHasAllBytes)
{
    CacheLine l = CacheLine::filledWords(0x11223344);
    std::string s = l.toString();
    EXPECT_NE(s.find("44332211"), std::string::npos);
}

TEST(BitStream, WriteReadRoundTrip)
{
    BitWriter bw;
    bw.put(0b101, 3);
    bw.put(0xdead, 16);
    bw.put(1, 1);
    bw.put(0x0123456789abcdefull, 64);
    BitVec v = bw.take();
    EXPECT_EQ(v.sizeBits(), 3u + 16 + 1 + 64);

    BitReader br(v);
    EXPECT_EQ(br.get(3), 0b101u);
    EXPECT_EQ(br.get(16), 0xdeadu);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.get(64), 0x0123456789abcdefull);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitStream, AppendBits)
{
    BitWriter a;
    a.put(0b1100, 4);
    BitWriter b;
    b.put(0b1010, 4);
    a.appendBits(b.bits());
    BitReader br(a.bits());
    EXPECT_EQ(br.get(8), 0b11001010u);
}

TEST(BitStream, ZeroLengthVec)
{
    BitVec v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.toggleCount(16), 0u);
}

TEST(BitStream, ToggleCount)
{
    // Two 4-bit beats: 1111 then 0000 -> 4 toggles.
    BitWriter bw;
    bw.put(0b1111, 4);
    bw.put(0b0000, 4);
    EXPECT_EQ(bw.bits().toggleCount(4), 4u);

    // Identical beats -> no toggles.
    BitWriter bw2;
    bw2.put(0b1010, 4);
    bw2.put(0b1010, 4);
    EXPECT_EQ(bw2.bits().toggleCount(4), 0u);
}

TEST(BitStream, MsbFirstBytePacking)
{
    // pushBit must set bits MSB-first without narrowing surprises
    // at byte boundaries.
    BitVec v;
    v.pushBit(true); // bit 7 of byte 0
    for (int i = 0; i < 7; ++i)
        v.pushBit(false);
    v.pushBit(true); // bit 7 of byte 1
    EXPECT_EQ(v.data()[0], 0x80u);
    EXPECT_EQ(v.data()[1], 0x80u);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(8));
}

TEST(BitStreamDeathTest, BitOutOfRangePanics)
{
    BitVec v;
    v.pushBit(true);
    EXPECT_DEATH((void)v.bit(1), "out of");
    EXPECT_DEATH(v.flipBit(1), "out of");
}

// ---------------------------------------------------------------------
// Word-granular bitstream vs a bit-serial reference model
// ---------------------------------------------------------------------

namespace
{

/** One bool per bit: the obviously-correct stream the word-granular
 *  BitVec must agree with. */
struct RefStream
{
    std::vector<bool> bits;

    void
    put(std::uint64_t value, unsigned nbits)
    {
        for (unsigned i = nbits; i-- > 0;)
            bits.push_back((value >> i) & 1);
    }

    std::uint64_t
    read(std::size_t pos, unsigned nbits) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < nbits; ++i)
            v = (v << 1) | (bits[pos + i] ? 1 : 0);
        return v;
    }
};

/** Asserts @p v holds exactly @p ref, with a zero tail past the end
 *  of the last byte. */
void
expectSameStream(const BitVec &v, const RefStream &ref)
{
    ASSERT_EQ(v.sizeBits(), ref.bits.size());
    for (std::size_t i = 0; i < ref.bits.size(); ++i)
        ASSERT_EQ(v.bit(i), ref.bits[i]) << "bit " << i;
    std::size_t n = ref.bits.size();
    if (n % 8 != 0) {
        EXPECT_EQ(v.data()[n / 8] & (0xffu >> (n % 8)), 0u)
            << "set padding past " << n << " bits";
    }
}

/** A @p nbits-bit stream of random fields, mirrored into @p ref. */
BitVec
randomStream(Rng &rng, std::size_t nbits, RefStream &ref)
{
    BitWriter bw;
    while (bw.sizeBits() < nbits) {
        unsigned n = static_cast<unsigned>(std::min<std::size_t>(
            rng.below(65), nbits - bw.sizeBits()));
        std::uint64_t value = rng.next();
        bw.put(value, n);
        ref.put(value, n);
    }
    return bw.take();
}

} // namespace

TEST(BitStreamModel, PutMatchesReferenceAndIgnoresHighGarbage)
{
    Rng rng(7);
    BitWriter bw;
    RefStream ref;
    for (int i = 0; i < 2000; ++i) {
        unsigned n = static_cast<unsigned>(rng.below(65));
        // Full 64-bit random values: everything above n is garbage
        // the writer must drop.
        std::uint64_t value = rng.next();
        bw.put(value, n);
        ref.put(value, n);
        ASSERT_EQ(bw.sizeBits(), ref.bits.size());
    }
    expectSameStream(bw.bits(), ref);
}

TEST(BitStreamModel, AppendBitsAtEveryAlignment)
{
    Rng rng(8);
    for (unsigned align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 130; ++len) {
            RefStream ref;
            BitWriter bw;
            std::uint64_t lead = rng.next();
            bw.put(lead, align);
            ref.put(lead, align);
            RefStream src_ref;
            BitVec src = randomStream(rng, len, src_ref);
            bw.appendBits(src);
            ref.bits.insert(ref.bits.end(), src_ref.bits.begin(),
                            src_ref.bits.end());
            // A trailing field after the merge lands where the
            // model says it does.
            bw.put(0x5, 3);
            ref.put(0x5, 3);
            expectSameStream(bw.bits(), ref);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(BitStreamModel, AppendBitsSubrange)
{
    Rng rng(9);
    RefStream src_ref;
    BitVec src = randomStream(rng, 300, src_ref);
    for (int i = 0; i < 500; ++i) {
        std::size_t begin = rng.below(src.sizeBits() + 1);
        std::size_t end = begin + rng.below(src.sizeBits() - begin + 1);
        RefStream ref;
        BitWriter bw;
        unsigned align = static_cast<unsigned>(rng.below(8));
        bw.put(0, align);
        ref.put(0, align);
        bw.appendBits(src, begin, end);
        ref.bits.insert(ref.bits.end(), src_ref.bits.begin() + begin,
                        src_ref.bits.begin() + end);
        expectSameStream(bw.bits(), ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(BitStreamModel, ReadEveryWidthAtEveryOffset)
{
    Rng rng(10);
    RefStream ref;
    BitVec v = randomStream(rng, 203, ref);
    for (std::size_t pos = 0; pos <= v.sizeBits(); ++pos) {
        unsigned max_w = static_cast<unsigned>(
            std::min<std::size_t>(64, v.sizeBits() - pos));
        for (unsigned w = 0; w <= max_w; ++w)
            ASSERT_EQ(v.read(pos, w), ref.read(pos, w))
                << "read(" << pos << ", " << w << ")";
    }
}

TEST(BitStreamModel, ReaderCursorTracksReference)
{
    Rng rng(11);
    RefStream ref;
    BitVec v = randomStream(rng, 1000, ref);
    BitReader br(v);
    std::size_t pos = 0;
    while (pos < v.sizeBits()) {
        EXPECT_FALSE(br.exhausted());
        unsigned n = static_cast<unsigned>(std::min<std::size_t>(
            rng.below(65), v.sizeBits() - pos));
        ASSERT_EQ(br.get(n), ref.read(pos, n)) << "at " << pos;
        pos += n;
        ASSERT_EQ(br.pos(), pos);
        ASSERT_EQ(br.remaining(), v.sizeBits() - pos);
    }
    EXPECT_TRUE(br.exhausted());
    EXPECT_EQ(br.remaining(), 0u);
    EXPECT_EQ(br.get(0), 0u); // a zero-width read at the end is legal
}

TEST(BitStreamDeathTest, PutWiderThanAWordPanics)
{
    BitWriter bw;
    EXPECT_DEATH(bw.put(0, 65), "nbits=65");
    BitVec v;
    EXPECT_DEATH(v.append(0, 65), "nbits=65");
}

TEST(BitStreamDeathTest, ReadPastEndPanics)
{
    BitWriter bw;
    bw.put(0xabc, 12);
    BitVec v = bw.take();
    BitReader br(v);
    (void)br.get(10);
    EXPECT_DEATH((void)br.get(3), "out of");
}

TEST(BitStreamDeathTest, PositionedReadOutOfRangePanics)
{
    BitWriter bw;
    bw.put(0xabc, 12);
    BitVec v = bw.take();
    EXPECT_EQ(v.read(12, 0), 0u);
    EXPECT_DEATH((void)v.read(5, 8), "out of");
    EXPECT_DEATH((void)v.read(13, 0), "out of");
    EXPECT_DEATH((void)v.read(0, 65), "out of");
    BitWriter dst;
    EXPECT_DEATH(dst.appendBits(v, 4, 13), "out of");
    EXPECT_DEATH(dst.appendBits(v, 5, 4), "range");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        if (a2.next() != c.next())
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
        auto x = r.range(10, 12);
        EXPECT_GE(x, 10u);
        EXPECT_LE(x, 12u);
    }
}

TEST(Rng, ChanceIsCalibrated)
{
    Rng r(99);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitMixAvalanche)
{
    // Neighbouring inputs produce very different outputs.
    std::uint64_t a = splitMix64(1), b = splitMix64(2);
    EXPECT_NE(a, b);
    int diff_bits = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff_bits, 10);
}

TEST(Stats, CountersAndRatios)
{
    StatSet s;
    s.add("transfers", 10);
    s.add("transfers", 5);
    s.add("responses", 3);
    EXPECT_EQ(s.get("transfers"), 15u);
    EXPECT_EQ(s.get("responses"), 3u);
    EXPECT_EQ(s.get("wire_bits"), 0u); // registered, never touched
    EXPECT_DOUBLE_EQ(s.ratio("transfers", "responses"), 5.0);
    EXPECT_DOUBLE_EQ(s.ratio("transfers", "wire_bits"), 0.0);
}

TEST(Stats, RunTimeNamesResolveThroughTheRegistry)
{
    std::optional<Counter> c = Counter::named("retransmits");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->id(), Counter("retransmits").id());
    EXPECT_EQ(c->name(), "retransmits");
    EXPECT_FALSE(Counter::named("retransmit").has_value());
    EXPECT_FALSE(Counter::named("").has_value());
    StatSet s;
    EXPECT_DEATH((void)s.get("retransmit"), "not in counters.def");
}

TEST(Stats, MergeAndClear)
{
    StatSet a, b;
    a.add("transfers", 1);
    b.add("transfers", 2);
    b.add("responses", 3);
    a.merge(b);
    EXPECT_EQ(a.get("transfers"), 3u);
    EXPECT_EQ(a.get("responses"), 3u);
    a.clear();
    EXPECT_EQ(a.get("transfers"), 0u);
    EXPECT_FALSE(a.has("transfers"));
}

TEST(Stats, DumpIsSorted)
{
    StatSet s;
    s.add("wire_bits", 1);
    s.add("arq_timeouts", 2);
    std::ostringstream os;
    s.dump(os, "p.");
    std::string out = os.str();
    EXPECT_LT(out.find("p.arq_timeouts 2"), out.find("p.wire_bits 1"));
}
