#include "core/signature.h"

#include <bit>

#include "common/simd.h"

namespace cable
{

H3Hash::H3Hash(unsigned out_bits, std::uint64_t seed)
    : out_bits_(out_bits)
{
    Rng rng(seed);
    for (auto &row : rows_)
        row = static_cast<std::uint32_t>(rng.next());
    mask_ = out_bits >= 32 ? ~0u : ((1u << out_bits) - 1);
}

// cable-lint: no-alloc
std::uint32_t
nonTrivialMask(const CacheLine &line, const SignatureConfig &cfg)
{
    return ~trivialMask16(line.data(), cfg.trivial_threshold)
           & 0xffffu;
}

// cable-lint: no-alloc
void
extractInsertSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out)
{
    out.clear();
    std::uint32_t mask = nonTrivialMask(line, cfg);
    for (unsigned k = 0; k < cfg.insert_count && k < 2; ++k) {
        unsigned base = cfg.insert_offsets[k];
        if (base >= kWordsPerLine)
            continue;
        std::uint32_t rest = mask >> base;
        if (!rest)
            continue;
        unsigned off = base
                       + static_cast<unsigned>(std::countr_zero(rest));
        out.pushUnique(line.word(off));
    }
}

// cable-lint: no-alloc
void
extractSearchSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out)
{
    extractSearchSignaturesInto(line, nonTrivialMask(line, cfg), out);
}

// cable-lint: no-alloc
void
extractSearchSignaturesInto(const CacheLine &line,
                            std::uint32_t nontrivial, SigList &out)
{
    out.clear();
    std::uint32_t mask = nontrivial;
    while (mask) {
        unsigned off = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        out.pushUnique(line.word(off));
    }
}

std::vector<std::uint32_t>
extractInsertSignatures(const CacheLine &line, const SignatureConfig &cfg)
{
    SigList sigs;
    extractInsertSignaturesInto(line, cfg, sigs);
    return std::vector<std::uint32_t>(sigs.begin(), sigs.end());
}

std::vector<std::uint32_t>
extractSearchSignatures(const CacheLine &line, const SignatureConfig &cfg)
{
    SigList sigs;
    extractSearchSignaturesInto(line, cfg, sigs);
    return std::vector<std::uint32_t>(sigs.begin(), sigs.end());
}

} // namespace cable
