#include "compress/oracle.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "common/log.h"

namespace cable
{

Oracle::Oracle()
    : lbe_(Lbe::Config{/*dict_bytes=*/256, /*persistent=*/false})
{
}

BitVec
Oracle::compress(const CacheLine &line, const RefList &refs)
{
    BitVec dp = dpEncode(line, refs);
    BitVec word = lbe_.compress(line, refs);
    BitWriter bw;
    if (dp.sizeBits() <= word.sizeBits()) {
        bw.put(0, 1);
        bw.appendBits(dp);
    } else {
        bw.put(1, 1);
        bw.appendBits(word);
    }
    return bw.take();
}

CacheLine
Oracle::decompress(const BitVec &bits, const RefList &refs)
{
    BitReader br(bits);
    if (br.get(1)) {
        // Strip the selector and replay the LBE payload.
        BitWriter rest;
        rest.appendBits(bits, br.pos(), bits.sizeBits());
        return lbe_.decompress(rest.bits(), refs);
    }
    return dpDecode(bits, br, refs);
}

BitVec
Oracle::dpEncode(const CacheLine &line, const RefList &refs) const
{
    // Combined source buffer: references then the line itself (the
    // prefix part only becomes addressable as it is produced).
    std::vector<std::uint8_t> src;
    src.reserve(refs.size() * kLineBytes + kLineBytes);
    for (const CacheLine *ref : refs)
        src.insert(src.end(), ref->data(), ref->data() + kLineBytes);
    const std::size_t rlen = src.size();
    src.insert(src.end(), line.data(), line.data() + kLineBytes);

    if (rlen + kLineBytes > (std::size_t{1} << kOffsetBits))
        panic("Oracle: source buffer exceeds offset field");

    // maxlen[i]: longest copy available at line position i, and the
    // offset achieving it. Sources must *start* before the decode
    // frontier but may overlap it (LZ run semantics): the decoder
    // produces bytes sequentially, so a copy reading its own output
    // reproduces periodic runs — which is also why comparing against
    // the original line bytes is exact here.
    std::array<unsigned, kLineBytes> maxlen{};
    std::array<unsigned, kLineBytes> bestoff{};
    for (unsigned i = 0; i < kLineBytes; ++i) {
        unsigned avail = static_cast<unsigned>(rlen) + i;
        unsigned best = 0, boff = 0;
        for (unsigned o = 0; o < avail; ++o) {
            unsigned lim =
                std::min<unsigned>(kMaxCopy, kLineBytes - i);
            unsigned len = 0;
            while (len < lim && src[o + len] == src[rlen + i + len])
                ++len;
            if (len > best) {
                best = len;
                boff = o;
            }
        }
        maxlen[i] = best;
        bestoff[i] = boff;
    }

    // DP over prefix lengths.
    constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;
    constexpr unsigned kLitBits = 1 + 8;
    constexpr unsigned kCopyBits = 1 + kOffsetBits + kLenBits;
    std::array<unsigned, kLineBytes + 1> cost{};
    std::array<int, kLineBytes + 1> from{};   // predecessor position
    std::array<unsigned, kLineBytes + 1> via{}; // copy len, 0=literal
    cost.fill(kInf);
    cost[0] = 0;
    for (unsigned i = 0; i < kLineBytes; ++i) {
        if (cost[i] == kInf)
            continue;
        if (cost[i] + kLitBits < cost[i + 1]) {
            cost[i + 1] = cost[i] + kLitBits;
            from[i + 1] = static_cast<int>(i);
            via[i + 1] = 0;
        }
        for (unsigned len = kMinCopy; len <= maxlen[i]; ++len) {
            if (cost[i] + kCopyBits < cost[i + len]) {
                cost[i + len] = cost[i] + kCopyBits;
                from[i + len] = static_cast<int>(i);
                via[i + len] = len;
            }
        }
    }

    // Reconstruct token sequence.
    struct Token
    {
        unsigned pos;
        unsigned len; // 0 = literal
    };
    std::vector<Token> tokens;
    for (unsigned i = kLineBytes; i > 0;
         i = static_cast<unsigned>(from[i])) {
        tokens.push_back({static_cast<unsigned>(from[i]), via[i]});
    }
    std::reverse(tokens.begin(), tokens.end());

    BitWriter bw;
    for (const Token &t : tokens) {
        if (t.len == 0) {
            bw.put(0, 1);
            bw.put(line.byte(t.pos), 8);
        } else {
            bw.put(1, 1);
            bw.put(bestoff[t.pos], kOffsetBits);
            bw.put(t.len - kMinCopy, kLenBits);
        }
    }
    return bw.take();
}

CacheLine
Oracle::dpDecode(const BitVec &, BitReader &br,
                 const RefList &refs) const
{
    std::vector<std::uint8_t> src;
    src.reserve(refs.size() * kLineBytes + kLineBytes);
    for (const CacheLine *ref : refs)
        src.insert(src.end(), ref->data(), ref->data() + kLineBytes);

    CacheLine line;
    unsigned produced = 0;
    while (produced < kLineBytes) {
        if (br.get(1)) {
            unsigned off = static_cast<unsigned>(br.get(kOffsetBits));
            unsigned len =
                static_cast<unsigned>(br.get(kLenBits)) + kMinCopy;
            if (off >= src.size())
                panic("Oracle::decompress: copy source beyond "
                      "frontier");
            for (unsigned k = 0; k < len; ++k) {
                // Overlapped copies read bytes this loop appended.
                std::uint8_t b = src[off + k];
                line.setByte(produced, b);
                src.push_back(b);
                ++produced;
            }
        } else {
            std::uint8_t b = static_cast<std::uint8_t>(br.get(8));
            line.setByte(produced, b);
            src.push_back(b);
            ++produced;
        }
    }
    return line;
}

} // namespace cable
