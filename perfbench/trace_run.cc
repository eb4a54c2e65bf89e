/**
 * @file
 * Traced run of one `cable_sim ratio <benchmark> --scheme cable
 * --timing` workload, for the per-layer half of the benchmark
 * (perfbench/README.md).
 *
 * Nothing here is compiled into the simulator: the spans below sit
 * around calls into each layer's public functions, made from this
 * file. Two passes run the same configuration cable_sim builds:
 *
 *  A. the library's own MemLinkSystem, with only stepOnce() timed:
 *     the step-time distribution and the modelled link occupancy;
 *  B. a step loop equivalent to MemLinkSystem's single-thread timing
 *     path (sim/memlink.cc), with a span around every call into the
 *     workload, cache and core layers. Before each compressed
 *     transfer the search/compress/frame sequence of the channel is
 *     replayed, read-only, from the public search, engine and
 *     bitstream functions, so those layers get per-call times; the
 *     replay is bracketed and removed from every enclosing span.
 *
 * Both passes must end with protocol statistics identical to each
 * other and (checked by perfbench/run.py) to the untraced cable_sim
 * run, which shows that tracing did not change behaviour. On
 * fault-free runs every replayed frame must equal the frame the
 * channel put on the wire, which shows the replay is faithful.
 *
 * Every span has the calibrated cost of the clock reads inside it
 * subtracted. Output: the protocol stats dump in cable_sim's
 * format, then one line "TRACE {json}".
 *
 *   perf_trace <benchmark> <ops> <seed> [fault-rate drop-sync-rate
 *              meta-rate fault-seed]
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/bitops.h"
#include "common/crc.h"
#include "common/rng.h"
#include "core/cbv.h"
#include "core/signature.h"
#include "sim/memlink.h"
#include "workload/profile.h"

namespace
{

using namespace cable;

// ---------------------------------------------------------------------
// Clock: TSC where available (a steady_clock read costs tens of ns on
// some VMs), calibrated against steady_clock; every read is counted
// so spans can subtract the reads they contain.
// ---------------------------------------------------------------------

struct Clock
{
    std::uint64_t reads = 0;
    /** Ticks and reads spent inside excluded (replay) brackets. */
    std::uint64_t excl_ticks = 0;
    std::uint64_t excl_reads = 0;
    double ns_per_tick = 1.0;
    double read_ns = 0.0;

    static std::uint64_t
    raw()
    {
#if defined(__x86_64__) || defined(__i386__)
        // Fenced on both sides: the read cannot overlap the timed
        // work, so its cost in place equals its calibrated cost.
        _mm_lfence();
        std::uint64_t t = __rdtsc();
        _mm_lfence();
        return t;
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
#endif
    }

    std::uint64_t
    now()
    {
        ++reads;
        return raw();
    }

    void
    calibrate()
    {
        using SC = std::chrono::steady_clock;
        auto s0 = SC::now();
        std::uint64_t t0 = raw();
        while (SC::now() - s0 < std::chrono::milliseconds(100)) {
        }
        auto s1 = SC::now();
        std::uint64_t t1 = raw();
        double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0)
                .count());
        ns_per_tick = ns / static_cast<double>(t1 - t0);

        // Cost of one read: the median of several back-to-back
        // batches, so one preempted batch cannot skew it.
        constexpr int kBatch = 200000;
        std::vector<double> per_read;
        for (int rep = 0; rep < 9; ++rep) {
            std::uint64_t a = raw();
            for (int i = 0; i < kBatch; ++i)
                (void)now();
            std::uint64_t b = raw();
            per_read.push_back(static_cast<double>(b - a) * ns_per_tick
                               / kBatch);
        }
        std::nth_element(per_read.begin(),
                         per_read.begin() + per_read.size() / 2,
                         per_read.end());
        read_ns = per_read[per_read.size() / 2];
        reads = 0;
    }
};

Clock g_clock;

/** Accumulated self time of one layer (or one timed call site). */
struct Acc
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    double
    perCall() const
    {
        return calls ? ns / static_cast<double>(calls) : 0.0;
    }
};

/**
 * RAII span. On close it adds its self time — its duration minus
 * excluded brackets, minus the cost of every clock read it contains,
 * minus the time of the spans nested in it — to @p acc, and its
 * whole (inclusive) time to @p dist, when given.
 */
class Span;

/** Innermost open span (null outside spans and inside brackets). */
Span *g_top = nullptr;

class Span
{
  public:
    explicit Span(Acc &acc, std::vector<double> *dist = nullptr)
        : acc_(acc), dist_(dist), parent_(g_top),
          excl_t_(g_clock.excl_ticks), excl_r_(g_clock.excl_reads)
    {
        g_top = this;
        t_ = g_clock.now();
        r_ = g_clock.reads;
    }

    ~Span()
    {
        std::uint64_t t = g_clock.now();
        double ticks = static_cast<double>(
            t - t_ - (g_clock.excl_ticks - excl_t_));
        double nreads = static_cast<double>(
            g_clock.reads - r_ - (g_clock.excl_reads - excl_r_));
        double ns = ticks * g_clock.ns_per_tick
                    - nreads * g_clock.read_ns;
        acc_.ns += ns - child_ns_;
        acc_.calls += 1;
        if (dist_)
            dist_->push_back(ns);
        if (parent_)
            parent_->child_ns_ += ns;
        g_top = parent_;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Acc &acc_;
    std::vector<double> *dist_;
    Span *parent_;
    std::uint64_t excl_t_;
    std::uint64_t excl_r_;
    std::uint64_t t_ = 0;
    std::uint64_t r_ = 0;
    double child_ns_ = 0.0;
};

/**
 * Bracket whose whole duration is removed from enclosing spans; the
 * spans opened inside it are roots, not children of those spans.
 */
class Excluded
{
  public:
    Excluded() : outer_(g_top), t_(g_clock.now()), r_(g_clock.reads)
    {
        g_top = nullptr;
    }
    ~Excluded()
    {
        g_top = outer_;
        std::uint64_t t = g_clock.now();
        g_clock.excl_ticks += t - t_;
        g_clock.excl_reads += g_clock.reads - r_;
    }
    Excluded(const Excluded &) = delete;
    Excluded &operator=(const Excluded &) = delete;

  private:
    Span *outer_;
    std::uint64_t t_;
    std::uint64_t r_;
};

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

std::string
dumpStats(const StatSet &s)
{
    std::ostringstream os;
    s.dump(os, "  ");
    return os.str();
}

bool
sameBits(const BitVec &a, const BitVec &b)
{
    if (a.sizeBits() != b.sizeBits())
        return false;
    for (std::size_t i = 0; i < a.sizeBits(); ++i)
        if (a.bit(i) != b.bit(i))
            return false;
    return true;
}

/** The configuration `cable_sim ratio --scheme cable --timing` builds
 *  from its defaults (tools/cable_sim.cc memCfg). */
MemSystemConfig
ratioConfig(int argc, char **argv)
{
    MemSystemConfig cfg;
    cfg.scheme = "cable";
    cfg.timing = true;
    cfg.seed = std::strtoull(argv[3], nullptr, 10);
    if (argc == 8) {
        cfg.fault.bit_error_rate = std::strtod(argv[4], nullptr);
        cfg.fault.drop_sync_rate = std::strtod(argv[5], nullptr);
        cfg.fault.meta_corrupt_rate = std::strtod(argv[6], nullptr);
        cfg.fault.seed = std::strtoull(argv[7], nullptr, 10);
    }
    return cfg;
}

// ---------------------------------------------------------------------
// Pass B: the instrumented step loop.
// ---------------------------------------------------------------------

/** Per-direction replay timings of the reference search. */
struct SearchTimes
{
    Acc sig;
    Acc probe;
    Acc score;
};

class TracedSystem
{
  public:
    TracedSystem(const MemSystemConfig &cfg, const WorkloadProfile &prog)
        : cfg_(cfg),
          llc_({"llc", cfg.llc_bytes_per_thread, cfg.llc_ways,
                cfg.llc_policy}),
          l4_({"l4", cfg.l4_bytes_per_thread, cfg.l4_ways}),
          link_(cfg.link), dram_(cfg.dram),
          lat_(schemeLatency(cfg.scheme)),
          l1_({"l1", cfg.l1_bytes, cfg.l1_ways}),
          l2_({"l2", cfg.l2_bytes, cfg.l2_ways}),
          gen_(prog.access, Addr{1} << kThreadBaseShift,
               splitMix64(cfg.seed ^ 13)),
          mem_(prog.value, Addr{1} << kThreadBaseShift,
               splitMix64(cfg.seed ^ 0x9191ull)),
          next_fault_audit_(cfg.fault_audit_period),
          engine_(makeDelegateEngine(cfg.cable.engine))
    {
        protocol_ = makeLinkProtocol(cfg.scheme, l4_, llc_, cfg.cable);
        protocol_->setBackinvalHook([this](Addr addr) {
            backInvalUpper(addr);
            expectBackinvalWriteBack(addr);
        });
        channel_ = protocol_->cableChannel();
        if (cfg_.fault.anyEnabled()) {
            injector_ = std::make_unique<FaultInjector>(cfg_.fault);
            channel_->setFaultModel(injector_.get());
        }
    }

    void
    run(std::uint64_t ops)
    {
        std::uint64_t t0 = g_clock.now();
        std::uint64_t r0 = g_clock.reads;
        std::uint64_t xt0 = g_clock.excl_ticks;
        std::uint64_t xr0 = g_clock.excl_reads;
        while (ops_ < ops) {
            // Every desync recovery advances the channel epoch.
            std::uint64_t epoch0 = channel_->epoch();
            {
                Span s(step_, &step_dist_);
                step();
            }
            if (channel_->epoch() != epoch0) {
                recovery_steps_.ns += step_dist_.back();
                recovery_steps_.calls += 1;
            }
        }
        std::uint64_t t1 = g_clock.now();
        loop_ns_ = static_cast<double>(t1 - t0) * g_clock.ns_per_tick;
        replay_ns_ = static_cast<double>(g_clock.excl_ticks - xt0)
                     * g_clock.ns_per_tick;
        loop_reads_ = (g_clock.reads - r0) - (g_clock.excl_reads - xr0);
    }

    void writeJson(std::ostream &os) const;

    StatSet &stats() { return protocol_->stats(); }
    double
    ipc() const
    {
        return time_ ? static_cast<double>(instrs_)
                           / static_cast<double>(time_)
                     : 0.0;
    }
    Cycles cycles() const { return time_; }

  private:
    void
    step()
    {
        MemOp op;
        {
            Span s(workload_);
            op = gen_.next();
        }
        time_ += op.gap;
        time_ += access(op.addr, op.store);
        instrs_ += op.gap + 1;
        ops_ += 1;
        pollFaultAudit();
    }

    Cycles
    access(Addr addr, bool store)
    {
        Addr la = lineAlign(addr);
        energy_.l1Access();

        auto mutate = [&]() {
            LineID lid;
            {
                Span s(cache_);
                lid = l1_.find(la);
            }
            Cache::Entry &e = l1_.entryAt(lid);
            unsigned w = static_cast<unsigned>((addr >> 2)
                                               & (kWordsPerLine - 1));
            std::uint64_t h = splitMix64(addr ^ (ops_ * 0x9e37ull));
            std::uint32_t v =
                (h & 1) ? static_cast<std::uint32_t>((h >> 8) & 0xff)
                        : static_cast<std::uint32_t>(h >> 32);
            e.data.setWord(w, v);
            e.state = CoherenceState::Modified;
        };

        bool hit;
        {
            Span s(cache_);
            hit = l1_.access(la);
        }
        if (hit) {
            if (store)
                mutate();
            return cfg_.l1_lat;
        }

        Cycles lat = cfg_.l1_lat + cfg_.l2_lat;
        energy_.l2Access();
        CacheLine data;
        {
            Span s(cache_);
            hit = l2_.access(la);
        }
        if (hit) {
            Span s(cache_);
            data = l2_.entryAt(l2_.find(la)).data;
        } else {
            lat += cfg_.llc_lat;
            energy_.llcAccess();
            {
                Span s(cache_);
                hit = llc_.access(la);
            }
            if (hit) {
                Span s(cache_);
                data = llc_.entryAt(llc_.find(la)).data;
            } else {
                llc_misses_ += 1;
                lat += offChipFill(la, time_ + lat);
                Span s(cache_);
                data = llc_.entryAt(llc_.find(la)).data;
            }
            installL2(la, data);
        }
        installL1(la, data);
        if (store)
            mutate();
        return lat;
    }

    Cycles
    offChipFill(Addr addr, Cycles now)
    {
        Cycles extra = 0;
        std::uint8_t vway;
        {
            Span s(cache_);
            vway = llc_.victimWay(addr);
        }
        LineID vlid(llc_.setOf(addr), vway);
        const Cache::Entry &victim = llc_.entryAt(vlid);
        if (victim.valid()) {
            Addr vaddr = victim.tag << kLineShift;
            backInvalUpper(vaddr);
            std::optional<BitVec> expect;
            if (victim.dirty())
                expect = replay(victim.data, true, vlid);
            std::optional<Transfer> wb;
            {
                Span s(expect ? writeback_ : sync_,
                       expect ? &writeback_dist_ : nullptr);
                wb = protocol_->evictRemoteSlot(vlid);
            }
            if (wb) {
                checkReplay(expect, *wb);
                accountLinkTransfer(*wb, false, now, extra);
                energy_.l4Access();
            }
        }

        Cycles dram_lat = 0;
        energy_.l4Access();
        bool l4_hit;
        {
            Span s(cache_);
            l4_hit = l4_.probe(addr);
        }
        if (!l4_hit) {
            CacheLine data;
            {
                Span s(workload_);
                data = mem_.lineAt(addr);
            }
            Cycles done = dram_.access(now + cfg_.l4_lat, addr, false);
            dram_lat = done - (now + cfg_.l4_lat);
            energy_.dramAccess();
            HomeInstallResult hr;
            {
                Span s(sync_);
                hr = protocol_->homeFill(addr, data);
            }
            if (hr.backinval_writeback) {
                checkReplay(backinval_expect_, *hr.backinval_writeback);
                accountLinkTransfer(*hr.backinval_writeback, false, now,
                                    extra);
            }
            backinval_expect_.reset();
            if (hr.memory_writeback) {
                {
                    Span s(workload_);
                    mem_.storeLine(hr.memory_writeback->addr,
                                   hr.memory_writeback->data);
                }
                dram_.access(now, hr.memory_writeback->addr, true);
                energy_.dramAccess();
            }
        }

        const CacheLine &home_data = l4_.entryAt(l4_.find(addr)).data;
        std::optional<BitVec> expect =
            replay(home_data, false, l4_.find(addr));
        Transfer resp;
        {
            Span s(fetch_, &fetch_dist_);
            resp = protocol_->respond(addr, vway);
        }
        checkReplay(expect, resp);
        countTransfer(resp);
        Cycles comp_lat = lat_.comp;
        Cycles decomp_lat = !resp.raw ? lat_.decomp : 0;
        Cycles ser_start = now + cfg_.l4_lat + dram_lat + comp_lat
                           + link_.config().setup_cycles;
        Cycles resp_lat = cfg_.l4_lat + dram_lat + comp_lat
                          + link_.config().setup_cycles + decomp_lat;
        Cycles done = link_.acquire(ser_start, resp.wireBits());
        resp_lat += done - ser_start + linkCyclesToCore(resp.retry_cycles);
        energy_.linkFlits(link_.flitsFor(resp.wireBits()),
                          link_.config().width_bits);
        if (!resp.raw) {
            energy_.compression();
            energy_.decompression();
        }
        return extra + resp_lat;
    }

    void
    installL2(Addr addr, const CacheLine &data)
    {
        std::uint8_t vway;
        {
            Span s(cache_);
            vway = l2_.victimWay(addr);
        }
        LineID vlid(l2_.setOf(addr), vway);
        const Cache::Entry &victim = l2_.entryAt(vlid);
        if (victim.valid()) {
            Addr vaddr = victim.tag << kLineShift;
            const CacheLine *newest =
                victim.dirty() ? &victim.data : nullptr;
            bool dirty = victim.dirty();
            LineID l1id;
            {
                Span s(cache_);
                l1id = l1_.find(vaddr);
            }
            if (l1id.valid) {
                const Cache::Entry &e1 = l1_.entryAt(l1id);
                if (e1.dirty()) {
                    newest = &e1.data;
                    dirty = true;
                }
                Span s(cache_);
                l1_.invalidate(vaddr);
            }
            if (dirty && newest) {
                {
                    Span s(sync_);
                    protocol_->dirtyUpdate(vaddr, *newest);
                }
                energy_.llcAccess();
            }
        }
        Span s(cache_);
        l2_.install(addr, data, CoherenceState::Shared, vway);
    }

    void
    installL1(Addr addr, const CacheLine &data)
    {
        std::uint8_t vway;
        {
            Span s(cache_);
            vway = l1_.victimWay(addr);
        }
        LineID vlid(l1_.setOf(addr), vway);
        const Cache::Entry &victim = l1_.entryAt(vlid);
        if (victim.valid() && victim.dirty()) {
            Addr vaddr = victim.tag << kLineShift;
            Span s(cache_);
            if (!l2_.probe(vaddr)) {
                std::fprintf(stderr, "perf_trace: L2 not inclusive\n");
                std::exit(1);
            }
            l2_.writeLine(vaddr, victim.data, true);
            energy_.l2Access();
        }
        Span s(cache_);
        l1_.install(addr, data, CoherenceState::Shared, vway);
    }

    /** Also the back-invalidation hook (nested in homeFill's span). */
    void
    backInvalUpper(Addr addr)
    {
        LineID l1id, l2id;
        {
            Span s(cache_);
            l1id = l1_.find(addr);
            l2id = l2_.find(addr);
        }
        const CacheLine *newest = nullptr;
        bool dirty = false;
        if (l2id.valid && l2_.entryAt(l2id).dirty()) {
            newest = &l2_.entryAt(l2id).data;
            dirty = true;
        }
        if (l1id.valid && l1_.entryAt(l1id).dirty()) {
            newest = &l1_.entryAt(l1id).data;
            dirty = true;
        }
        if (dirty && newest)
            protocol_->dirtyUpdate(addr, *newest);
        {
            Span s(cache_);
            if (l1id.valid)
                l1_.invalidate(addr);
            if (l2id.valid)
                l2_.invalidate(addr);
        }
    }

    /** homeInstall back-invalidates a dirty remote copy with a
     *  compressed write-back right after its hook returns. */
    void
    expectBackinvalWriteBack(Addr addr)
    {
        LineID rlid = llc_.find(addr);
        if (rlid.valid && llc_.entryAt(rlid).dirty())
            backinval_expect_ =
                replay(llc_.entryAt(rlid).data, true, rlid);
    }

    void
    accountLinkTransfer(const Transfer &t, bool critical, Cycles &now,
                        Cycles &extra_lat)
    {
        countTransfer(t);
        energy_.linkFlits(link_.flitsFor(t.wireBits()),
                          link_.config().width_bits);
        if (!t.raw) {
            energy_.compression();
            energy_.decompression();
        }
        Cycles done = link_.acquire(now, t.wireBits());
        if (critical)
            extra_lat += done - now + linkCyclesToCore(t.retry_cycles);
    }

    Cycles
    linkCyclesToCore(Cycles link_cycles) const
    {
        if (!link_cycles)
            return 0;
        double f = link_.config().core_ghz / link_.config().link_ghz;
        return static_cast<Cycles>(
            static_cast<double>(link_cycles) * f + 0.5);
    }

    void
    pollFaultAudit()
    {
        if (!injector_ || time_ < next_fault_audit_)
            return;
        Span s(sync_);
        if (channel_->degraded())
            channel_->stats().add("degraded_cycles",
                                  cfg_.fault_audit_period);
        (void)channel_->auditInvariant();
        next_fault_audit_ = time_ + cfg_.fault_audit_period;
    }

    void
    countTransfer(const Transfer &t)
    {
        transfers_ += 1;
        if (t.self_only)
            self_only_ += 1;
        if (t.raw)
            raw_ += 1;
        if (t.writeback && t.nrefs > 0)
            wb_with_refs_ += 1;
    }

    void
    checkReplay(const std::optional<BitVec> &expect, const Transfer &t)
    {
        if (!expect || !sameBits(*expect, t.wire))
            mismatches_ += 1;
    }

    /**
     * Read-only replay of the channel's encode of @p data
     * (compressForSend / compressForWriteBack + packageTransfer in
     * core/channel.cc): self-compress, then — unless the self
     * threshold or degraded mode ends it — signature extraction,
     * hash-table probe, coverage scoring and the reference encode;
     * then the wire frame with its CRC, the receive-side CRC check
     * and read-back, and the decode. Returns the frame the channel
     * should send. Bracketed out of every enclosing span.
     */
    std::optional<BitVec>
    replay(const CacheLine &data, bool wb, LineID self)
    {
        Excluded bracket;
        const CableConfig &cc = channel_->config();
        Cache &home = channel_->home();
        Cache &remote = channel_->remote();
        const WayMapTable &wmt = channel_->wmt();
        SearchTimes &st = wb ? wb_search_ : search_;

        const std::size_t raw_cost =
            kWireRawHeaderBits + kLineBytes * kBitsPerByte;
        BitVec self_bits;
        {
            Span s(encode_);
            self_bits = engine_->compress(data, {});
        }
        const std::size_t self_cost =
            kWireCompressedHeaderBits + self_bits.sizeBits();
        bool stop = channel_->degraded();
        if (!wb && self_bits.sizeBits() > 0
            && static_cast<double>(kLineBytes * 8)
                       / static_cast<double>(self_bits.sizeBits())
                   >= cc.self_ratio_threshold
            && self_cost <= raw_cost)
            stop = true;

        unsigned nrefs = 0;
        std::array<LineID, kWireMaxRefs> ref_lids{};
        RefList refs;
        BitVec ref_bits;
        std::size_t refs_cost = raw_cost + 1;
        if (!stop) {
            {
                Span s(st.sig);
                extractSearchSignaturesInto(data, cc.sig, sigs_);
            }
            {
                Span s(st.probe);
                hits_.clear();
                const SignatureHashTable &table =
                    wb ? channel_->remoteTable() : channel_->homeTable();
                for (std::uint32_t sig : sigs_)
                    table.lookup(sig, hits_);
            }
            // Pre-rank by duplication count, first seen first.
            ranked_.clear();
            for (LineID lid : hits_) {
                if (lid == self)
                    continue;
                auto it = std::find_if(
                    ranked_.begin(), ranked_.end(),
                    [&](const auto &p) { return p.first == lid; });
                if (it == ranked_.end())
                    ranked_.emplace_back(lid, 1);
                else
                    ++it->second;
            }
            std::stable_sort(ranked_.begin(), ranked_.end(),
                             [](const auto &a, const auto &b) {
                                 return a.second > b.second;
                             });
            if (ranked_.size() > cc.data_accesses)
                ranked_.resize(cc.data_accesses);
            cand_lids_.clear();
            cand_data_.clear();
            for (const auto &[lid, dup] : ranked_) {
                if (wb) {
                    const Cache::Entry &e = remote.entryAt(lid);
                    if (!e.valid() || e.dirty()
                        || !wmt.occupant(lid.set, lid.way))
                        continue;
                    cand_lids_.push_back(lid);
                    cand_data_.push_back(&e.data);
                } else {
                    const Cache::Entry &e = home.entryAt(lid);
                    if (!e.valid())
                        continue;
                    std::uint32_t rset =
                        remote.setOf(e.tag << kLineShift);
                    auto rway = wmt.lookupRemoteWay(rset, lid);
                    if (!rway)
                        continue;
                    cand_lids_.push_back(LineID(rset, *rway));
                    cand_data_.push_back(&e.data);
                }
            }
            unsigned npicks;
            std::array<unsigned, kWireMaxRefs> picks{};
            {
                Span s(st.score);
                cbvs_.clear();
                for (const CacheLine *c : cand_data_)
                    cbvs_.push_back(coverageVector(data, *c));
                npicks = selectByCoverageInto(
                    cbvs_.data(), static_cast<unsigned>(cbvs_.size()),
                    cc.max_refs, picks.data());
            }
            for (unsigned p = 0; p < npicks; ++p) {
                ref_lids[nrefs++] = cand_lids_[picks[p]];
                refs.push_back(cand_data_[picks[p]]);
            }
            if (nrefs > 0) {
                {
                    Span s(encode_);
                    ref_bits = engine_->compress(data, refs);
                }
                refs_cost = kWireCompressedHeaderBits
                            + nrefs * channel_->remoteLidBits()
                            + ref_bits.sizeBits();
            }
        }

        bool use_refs =
            nrefs > 0 && refs_cost < self_cost && refs_cost < raw_cost;
        bool raw = !use_refs && self_cost > raw_cost;
        if (!use_refs) {
            nrefs = 0;
            refs.clear();
        }
        const BitVec &diff = use_refs ? ref_bits : self_bits;

        BitVec frame;
        {
            Span s(frame_);
            BitVec payload = CableChannel::bitsOf(data);
            BitWriter bw;
            if (raw) {
                bw.put(0, kWireFlagBits);
                bw.appendBits(payload);
            } else {
                bw.put(1, kWireFlagBits);
                bw.put(nrefs, kWireNRefsBits);
                unsigned way_bits =
                    std::max(1u, bitsToIndex(remote.numWays()));
                for (unsigned i = 0; i < nrefs; ++i) {
                    bw.put(ref_lids[i].set,
                           channel_->remoteLidBits() - way_bits);
                    bw.put(ref_lids[i].way, way_bits);
                }
                bw.appendBits(diff);
            }
            if (cc.frame_crc_bits > 0)
                appendFrameCrc(bw, cc.frame_crc_bits);
            frame = bw.take();
        }
        {
            Span s(unframe_);
            bool ok = cc.frame_crc_bits == 0
                      || checkFrameCrc(frame, cc.frame_crc_bits);
            BitReader r(frame);
            std::uint64_t sink = ok ? 0 : 1;
            while (r.remaining() > cc.frame_crc_bits) {
                unsigned n = static_cast<unsigned>(std::min<std::size_t>(
                    64, r.remaining() - cc.frame_crc_bits));
                sink ^= r.get(n);
            }
            unframe_sink_ ^= sink;
        }
        if (!raw) {
            CacheLine out;
            {
                Span s(decode_);
                out = engine_->decompress(diff, refs);
            }
            if (out != data)
                mismatches_ += 1;
        }
        return frame;
    }

    MemSystemConfig cfg_;
    Cache llc_;
    Cache l4_;
    LinkModel link_;
    DramModel dram_;
    EnergyModel energy_;
    LinkProtocolPtr protocol_;
    CableChannel *channel_ = nullptr;
    std::unique_ptr<FaultInjector> injector_;
    SchemeLatency lat_;
    Cache l1_;
    Cache l2_;
    AccessGen gen_;
    SyntheticMemory mem_;
    Cycles time_ = 0;
    std::uint64_t instrs_ = 0;
    std::uint64_t ops_ = 0;
    Cycles next_fault_audit_;

    // replay state
    CompressorPtr engine_;
    SigList sigs_;
    std::vector<LineID> hits_;
    std::vector<std::pair<LineID, unsigned>> ranked_;
    std::vector<LineID> cand_lids_;
    std::vector<const CacheLine *> cand_data_;
    std::vector<std::uint32_t> cbvs_;
    std::optional<BitVec> backinval_expect_;
    std::uint64_t unframe_sink_ = 0;
    std::uint64_t mismatches_ = 0;

    // layer spans and counts
    Acc step_, workload_, cache_, fetch_, writeback_, sync_;
    Acc recovery_steps_;
    SearchTimes search_, wb_search_;
    Acc encode_, decode_, frame_, unframe_;
    std::vector<double> step_dist_, fetch_dist_, writeback_dist_;
    std::uint64_t llc_misses_ = 0;
    std::uint64_t transfers_ = 0;
    std::uint64_t self_only_ = 0;
    std::uint64_t raw_ = 0;
    std::uint64_t wb_with_refs_ = 0;
    double loop_ns_ = 0.0;
    double replay_ns_ = 0.0;
    std::uint64_t loop_reads_ = 0;
};

void
field(std::ostream &os, const char *name, double v, bool last = false)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << '"' << name << "\":" << buf << (last ? "" : ",");
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

void
TracedSystem::writeJson(std::ostream &os) const
{
    const StatSet &s = protocol_->stats();
    auto get = [&](const char *n) {
        return static_cast<double>(s.get(n));
    };
    double ops = static_cast<double>(ops_);
    double searches = get("searches");
    double wb_searches = get("wb_searches");
    const Histogram *sig_h = s.findHist("sigs_per_search");
    const Histogram *wb_sig_h = s.findHist("wb_sigs_per_search");
    const Histogram *hits_h = s.findHist("ht_hits_per_search");
    double all_hits = hits_h ? static_cast<double>(hits_h->sum()) : 0.0;

    // Self times of all layers add up to the steps' inclusive time;
    // closure compares that with the whole loop, clock reads removed.
    double steps_ns = 0.0;
    for (double ns : step_dist_)
        steps_ns += ns;
    double loop_corrected =
        loop_ns_ - replay_ns_
        - static_cast<double>(loop_reads_) * g_clock.read_ns;

    field(os, "sim.self_ns_per_op", step_.ns / ops);
    field(os, "workload.ns_per_op", workload_.ns / ops);
    field(os, "cache.ns_per_op", cache_.ns / ops);
    field(os, "cache.llc_miss_per_op",
          static_cast<double>(llc_misses_) / ops);
    field(os, "core.fetch_ns.p50", quantile(fetch_dist_, 0.50));
    field(os, "core.fetch_ns.p99", quantile(fetch_dist_, 0.99));
    field(os, "core.writeback_ns.p50", quantile(writeback_dist_, 0.50));
    field(os, "core.writeback_ns.p99", quantile(writeback_dist_, 0.99));
    field(os, "core.sync_ns", sync_.perCall());
    field(os, "core.upgrades", get("upgrades"));
    field(os, "core.remote_evictions",
          get("remote_evict_clean") + get("remote_evict_dirty"));

    field(os, "core.search.sig_ns", search_.sig.perCall());
    field(os, "core.search.probe_ns", search_.probe.perCall());
    field(os, "core.search.score_ns", search_.score.perCall());
    field(os, "core.search.per_response",
          ratio(searches, get("responses")));
    field(os, "core.search.sigs_mean", sig_h ? sig_h->mean() : 0.0);
    field(os, "core.search.ht_hits_mean",
          ratio(get("ht_hits"), searches));
    field(os, "core.search.data_reads_mean",
          ratio(get("data_reads"), searches));
    field(os, "core.search.yield",
          ratio(get("responses") - get("refs_0"), searches));
    field(os, "core.wb_search.sig_ns", wb_search_.sig.perCall());
    field(os, "core.wb_search.probe_ns", wb_search_.probe.perCall());
    field(os, "core.wb_search.score_ns", wb_search_.score.perCall());
    field(os, "core.wb_search.per_writeback",
          ratio(wb_searches, get("wb_transfers")));
    field(os, "core.wb_search.sigs_mean",
          wb_sig_h ? wb_sig_h->mean() : 0.0);
    field(os, "core.wb_search.ht_hits_mean",
          ratio(all_hits - get("ht_hits"), wb_searches));
    field(os, "core.wb_search.data_reads_mean",
          ratio(get("wb_data_reads"), wb_searches));
    field(os, "core.wb_search.yield",
          ratio(static_cast<double>(wb_with_refs_), wb_searches));

    double transfers = static_cast<double>(transfers_);
    field(os, "compress.encode_ns", encode_.perCall());
    field(os, "compress.decode_ns", decode_.perCall());
    field(os, "compress.frame_ns", frame_.perCall());
    field(os, "compress.unframe_ns", unframe_.perCall());
    field(os, "compress.wire_bits_per_line",
          ratio(get("wire_bits"), get("transfers")));
    field(os, "compress.self_only_frac",
          ratio(static_cast<double>(self_only_), transfers));
    field(os, "compress.raw_frac",
          ratio(static_cast<double>(raw_), transfers));

    field(os, "core.arq.retransmits", get("retransmits"));
    field(os, "core.arq.raw_fallbacks", get("raw_fallbacks"));
    field(os, "core.arq.desync_recoveries", get("desync_recoveries"));
    field(os, "core.arq.degraded_frac",
          ratio(get("degraded_transfers"), get("transfers")));
    field(os, "core.arq.recovery_step_ns", recovery_steps_.perCall());

    field(os, "trace.clock_ns", g_clock.read_ns);
    field(os, "trace.loop_ns", loop_ns_ - replay_ns_);
    field(os, "trace.closure_frac", ratio(steps_ns, loop_corrected));
    field(os, "replay_mismatches", static_cast<double>(mismatches_));
    // Printed so the replayed read-back cannot be optimized away.
    field(os, "unframe_checksum", static_cast<double>(unframe_sink_ & 1),
          true);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4 && argc != 8) {
        std::fprintf(stderr,
                     "usage: perf_trace <benchmark> <ops> <seed> "
                     "[fault-rate drop-sync-rate meta-rate "
                     "fault-seed]\n");
        return 2;
    }
    const WorkloadProfile &prog = benchmarkProfile(argv[1]);
    std::uint64_t ops = std::strtoull(argv[2], nullptr, 10);
    MemSystemConfig cfg = ratioConfig(argc, argv);
    g_clock.calibrate();

    // Pass A: the library's MemLinkSystem, stepOnce() timed.
    MemLinkSystem sys(cfg, {prog});
    Acc steps;
    std::vector<double> step_dist;
    step_dist.reserve(ops);
    while (!sys.allThreadsReached(ops)) {
        Span s(steps, &step_dist);
        sys.stepOnce();
    }
    sys.finishEnergyAccounting();
    std::string dump_a = dumpStats(sys.protocol().stats());

    // Pass B: the instrumented loop.
    TracedSystem traced(cfg, prog);
    traced.run(ops);
    std::string dump_b = dumpStats(traced.stats());

    if (dump_a != dump_b || sys.aggregateIPC() != traced.ipc()
        || sys.maxTime() != traced.cycles()) {
        std::fprintf(stderr, "perf_trace: the instrumented loop "
                             "diverged from MemLinkSystem\n");
        return 1;
    }

    std::cout << "--- protocol stats ---\n" << dump_a;
    std::ostringstream js;
    js << "{";
    field(js, "sim.step_ns.p50", quantile(step_dist, 0.50));
    field(js, "sim.step_ns.p99", quantile(step_dist, 0.99));
    field(js, "sim.link_util", sys.link().utilization(sys.maxTime()));
    field(js, "sim_ipc", sys.aggregateIPC());
    field(js, "cycles", static_cast<double>(sys.maxTime()));
    traced.writeJson(js);
    js << "}";
    std::cout << "TRACE " << js.str() << "\n";
    return 0;
}
