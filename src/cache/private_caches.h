/**
 * @file
 * PrivateCaches: one core's private L1 + L2 over a shared inclusive
 * LLC, the PriME-style hierarchy of the memory-link (§V-A) and
 * coherence-link (§V-B) systems. The L2 is inclusive of the L1 and
 * both are write-back: a store dirties only the L1 copy, a dirty L1
 * victim lands in the L2, and dirty data leaves the private levels
 * only when the L2 evicts it or the LLC back-invalidates it. That
 * moment is when CABLE sees the S→M upgrade (DESIGN.md §6,
 * "Upgrades at dirty-visibility"), and its merge rule lives here
 * once: the newest copy wins (L1 over L2), both private copies are
 * invalidated first, and then a copy of the data is written down —
 * so a write-down that sweeps sharers (NumaSystem) cannot recurse
 * into the lines being dropped.
 *
 * Where written-down data goes is the caller's business: every
 * operation that can write down takes a `down(addr, data)` callable
 * as a template parameter, so the per-access path makes no indirect
 * call of its own. Latency and energy stay with the caller too; an
 * access reports what happened.
 */

#ifndef CABLE_CACHE_PRIVATE_CACHES_H
#define CABLE_CACHE_PRIVATE_CACHES_H

#include <cstdint>

#include "cache/cache.h"
#include "common/rng.h"

namespace cable
{

class PrivateCaches
{
  public:
    /** What one access did, for the caller's latency and energy. */
    struct Access
    {
        bool l1_hit = false;
        /** A dirty L1 victim was written into the L2. */
        bool l1_writeback = false;
        /** A dirty L2 victim was written down. */
        bool l2_writedown = false;
    };

    PrivateCaches(const Cache::Config &l1, const Cache::Config &l2)
        : l1_(l1), l2_(l2)
    {
    }

    /**
     * One load or store of @p addr. On an L2 miss, @p fill(line)
     * brings the line into the LLC and returns its data; the line is
     * then installed in the L2 (on an L2 miss) and the L1, writing
     * dirty victims down. A store writes a synthetic value, salted
     * by @p salt, into the L1 copy and dirties it.
     */
    template <class Fill, class Down>
    Access
    access(Addr addr, bool store, std::uint64_t salt, Fill &&fill,
           Down &&down)
    {
        Addr la = lineAlign(addr);
        Access r;
        r.l1_hit = l1_.access(la);
        if (!r.l1_hit) {
            bool l2_hit = l2_.access(la);
            CacheLine data =
                l2_hit ? l2_.entryAt(l2_.find(la)).data : fill(la);
            if (!l2_hit)
                r.l2_writedown = installL2(la, data, down);
            r.l1_writeback = installL1(la, data);
        }
        if (store)
            storeWord(addr, salt);
        return r;
    }

    /** Drops @p addr from both levels, writing the newest dirty
     *  copy down. */
    template <class Down>
    void
    backInvalidate(Addr addr, Down &&down)
    {
        drop(addr, l1_.find(addr), l2_.find(addr), down);
    }

    /** Drops any copy of @p addr without writing it down (a stale
     *  copy); true if there was one. */
    bool
    discard(Addr addr)
    {
        bool had = l1_.invalidate(addr).valid;
        return l2_.invalidate(addr).valid || had;
    }

  private:
    template <class Down>
    bool
    drop(Addr addr, LineID l1id, LineID l2id, Down &&down)
    {
        const CacheLine *newest = nullptr;
        if (l1id.valid && l1_.entryAt(l1id).dirty())
            newest = &l1_.entryAt(l1id).data;
        else if (l2id.valid && l2_.entryAt(l2id).dirty())
            newest = &l2_.entryAt(l2id).data;
        if (l1id.valid)
            l1_.invalidate(addr);
        if (l2id.valid)
            l2_.invalidate(addr);
        if (!newest)
            return false;
        CacheLine copy = *newest;
        down(addr, copy);
        return true;
    }

    template <class Down>
    bool
    installL2(Addr la, const CacheLine &data, Down &&down)
    {
        std::uint8_t vway = l2_.victimWay(la);
        LineID vlid(l2_.setOf(la), vway);
        bool wrote = false;
        if (l2_.entryAt(vlid).valid()) {
            Addr vaddr = l2_.addrAt(vlid);
            wrote = drop(vaddr, l1_.find(vaddr), vlid, down);
        }
        l2_.install(la, data, CoherenceState::Shared, vway);
        return wrote;
    }

    bool
    installL1(Addr la, const CacheLine &data)
    {
        std::uint8_t vway = l1_.victimWay(la);
        const Cache::Entry &victim =
            l1_.entryAt(LineID(l1_.setOf(la), vway));
        bool dirty = victim.dirty();
        // Inclusion: writeLine panics if the L2 lost the line.
        if (dirty)
            l2_.writeLine(victim.tag << kLineShift, victim.data, true);
        l1_.install(la, data, CoherenceState::Shared, vway);
        return dirty;
    }

    void
    storeWord(Addr addr, std::uint64_t salt)
    {
        Cache::Entry &e = l1_.entryAt(l1_.find(addr));
        unsigned w =
            static_cast<unsigned>((addr >> 2) & (kWordsPerLine - 1));
        // Stored values mirror real programs: mostly small integers
        // and flags, occasionally arbitrary words — which keeps
        // dirty lines compressible but harder than clean ones
        // (the Fig 13 "dirty transfers compress worse" effect).
        std::uint64_t h = splitMix64(addr ^ (salt * 0x9e37ull));
        std::uint32_t v = (h & 1)
                              ? static_cast<std::uint32_t>((h >> 8) & 0xff)
                              : static_cast<std::uint32_t>(h >> 32);
        e.data.setWord(w, v);
        e.state = CoherenceState::Modified;
    }

    Cache l1_;
    Cache l2_;
};

} // namespace cable

#endif // CABLE_CACHE_PRIVATE_CACHES_H
