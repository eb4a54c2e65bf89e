/**
 * @file
 * Micro-benchmark (google-benchmark): cost of the observability
 * layer on the encode hot path — no tracing at all, span sampling
 * armed but without a sink (must be free), and the full profiled
 * configuration (analyzer sink + 1-in-N span recording), at the
 * default and a dense sample period.
 *
 * `micro_trace --overhead-check` switches to a self-asserting mode
 * (wired into ctest as bench.trace_overhead): on one shared rig it
 * alternates each configuration on and off per chunk of a fixed
 * address stream, pairs each chunk's on/off timings across adjacent
 * passes, and takes the median over all pairs, and fails unless
 *
 *   - arming span sampling without a sink costs < 1% (the
 *     zero-cost-when-unobserved guarantee), and
 *   - the full profiled configuration (the cable_sim default: span
 *     period 64, analyzer consuming every event) costs < 2% encode
 *     latency.
 *
 * `micro_trace --analytics-check` gates the phase-analytics layer
 * (DESIGN.md §14) the same way: quantile sketches recording every
 * transfer plus a PhaseDetector fed once per chunk must cost < 2%
 * encode latency, and the detector alone (sketches disabled — the
 * hot path pays only null pointer tests) must be ~0 (< 1%).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"
#include "core/channel.h"
#include "telemetry/critpath.h"
#include "telemetry/phase.h"
#include "telemetry/trace.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

/** Consumes events without serializing: isolates recording cost
 *  from I/O, like the in-process analyzer tee in cable_sim. */
class AnalyzerOnlySink : public TraceSink
{
  public:
    explicit AnalyzerOnlySink(CritPathAnalyzer &a) : analyzer_(a) {}

    void
    emit(const TraceEvent &ev) override
    {
        ++emitted_;
        analyzer_.addEvent(ev);
    }

  private:
    CritPathAnalyzer &analyzer_;
};

struct Rig
{
    Cache home{{"home", 4u << 20, 8}};
    Cache remote{{"remote", 1u << 20, 8}};
    CableChannel channel;
    SyntheticMemory mem;
    Rng rng{1234};

    Rig()
        : channel(home, remote, CableConfig{}),
          mem(
              [] {
                  ValueProfile v;
                  v.zero_line_frac = 0.15;
                  v.template_count = 64;
                  v.mutation_rate = 0.06;
                  return v;
              }(),
              0, 77)
    {
    }

    void
    touch(Addr addr)
    {
        if (remote.access(addr))
            return;
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.remoteFetch(addr, false);
    }
};

void
BM_EncodeNoTracing(benchmark::State &state)
{
    Rig rig;
    for (int i = 0; i < 20000; ++i)
        rig.touch(rig.rng.below(1 << 14) * kLineBytes);
    for (auto _ : state)
        rig.touch(rig.rng.below(1 << 14) * kLineBytes);
}

void
BM_EncodeSpanSampled(benchmark::State &state)
{
    Rig rig;
    CritPathAnalyzer analyzer;
    AnalyzerOnlySink sink(analyzer);
    rig.channel.setTraceSink(&sink);
    rig.channel.setSpanSampling(
        static_cast<std::uint64_t>(state.range(0)));
    for (int i = 0; i < 20000; ++i)
        rig.touch(rig.rng.below(1 << 14) * kLineBytes);
    for (auto _ : state)
        rig.touch(rig.rng.below(1 << 14) * kLineBytes);
    state.counters["spanned"] = static_cast<double>(
        rig.channel.spanRecorder().sampledTransfers());
}

// ---------------------------------------------------------------------
// --overhead-check: self-asserting latency comparison
// ---------------------------------------------------------------------

/** One fixed address stream shared by every pass, so each pass of a
 *  warmed rig does bit-identical cache/search work. */
std::vector<Addr>
addressStream(std::size_t n)
{
    // A footprint twice the remote cache keeps the miss rate — and
    // with it the encode work under measurement — high.
    Rng rng(4321);
    std::vector<Addr> addrs(n);
    for (Addr &a : addrs)
        a = rng.below(1 << 15) * kLineBytes;
    return addrs;
}

/** A toggleable observability configuration on one shared rig. */
struct ModeToggle
{
    Rig &rig;
    TraceSink *sink;               ///< attached when on (may be null)
    std::uint64_t span_period;     ///< span sampling when on

    void
    set(bool on) const
    {
        rig.channel.setTraceSink(on ? sink : nullptr);
        rig.channel.setSpanSampling(on ? span_period : 0);
    }

    void
    chunkEnd(bool) const
    {
    }
};

/** Phase-analytics configuration: per-transfer quantile sketches
 *  plus a change-point detector observing once per chunk — a far
 *  denser epoch cadence than any real --stats-interval, so the
 *  measured per-epoch cost is an upper bound. */
struct AnalyticsToggle
{
    Rig &rig;
    PhaseDetector *detector;  ///< observed per chunk when non-null
    const StatSet *epoch;     ///< synthetic epoch delta to observe
    bool sketches;            ///< record sketches when on

    void
    set(bool on) const
    {
        rig.channel.setSketchesEnabled(on && sketches);
    }

    void
    chunkEnd(bool on) const
    {
        if (on && detector)
            detector->observe(*epoch, 0);
    }
};

/**
 * Measures the encode-latency overhead of @p mode against the
 * fully-disabled baseline on the SAME rig: chunks alternate
 * on/off within a pass and the parity flips every pass, so each
 * chunk of the stream is timed in both modes a pass apart on
 * identical simulator state (sampling never changes encode
 * decisions). Pairing on/off per chunk cancels rig memory-layout
 * luck, chunk workload differences, and host-load drift; the
 * median over all pairs sheds what noise remains. Returns the
 * median overhead fraction.
 */
template <typename Mode>
double
pairedOverhead(const Mode &mode, const std::vector<Addr> &addrs,
               std::size_t chunk_ops, int passes)
{
    const std::size_t nchunks =
        (addrs.size() + chunk_ops - 1) / chunk_ops;
    std::vector<std::uint64_t> grid(
        static_cast<std::size_t>(passes) * nchunks, 0);

    auto timed_chunk = [&](std::size_t lo, std::size_t hi, bool on) {
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = lo; i < hi; ++i)
            mode.rig.touch(addrs[i]);
        mode.chunkEnd(on); // per-epoch work bills to its mode
        auto t1 = std::chrono::steady_clock::now();
        auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1
                                                                 - t0)
                .count();
        return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    };

    for (int p = 0; p < passes; ++p) {
        for (std::size_t c = 0; c < nchunks; ++c) {
            bool on = ((static_cast<std::size_t>(p) + c) % 2) == 0;
            mode.set(on);
            std::size_t lo = c * chunk_ops;
            std::size_t hi =
                std::min(lo + chunk_ops, addrs.size());
            grid[static_cast<std::size_t>(p) * nchunks + c] =
                timed_chunk(lo, hi, on);
        }
    }
    mode.set(false);

    // Adjacent passes have opposite parity, so within each pair of
    // passes every chunk runs once in each mode ~one pass apart —
    // close enough that host drift is equal on both sides. Each
    // (chunk, pass-pair) yields one paired overhead fraction;
    // the median over all of them (hundreds of samples) is robust
    // even to multi-chunk stalls, which pollute a few pairs into
    // outliers the median never sees.
    std::vector<double> fracs;
    for (std::size_t c = 0; c < nchunks; ++c) {
        for (int k = 0; k + 1 < passes; k += 2) {
            std::uint64_t a =
                grid[static_cast<std::size_t>(k) * nchunks + c];
            std::uint64_t b =
                grid[static_cast<std::size_t>(k + 1) * nchunks + c];
            if (a == 0 || b == 0)
                continue;
            bool a_on = ((static_cast<std::size_t>(k) + c) % 2) == 0;
            double on = static_cast<double>(a_on ? a : b);
            double off = static_cast<double>(a_on ? b : a);
            fracs.push_back((on - off) / off);
        }
    }
    std::sort(fracs.begin(), fracs.end());
    return fracs.empty() ? 0.0 : fracs[fracs.size() / 2];
}

int
overheadCheck()
{
    constexpr std::size_t kOps = 50000;
    constexpr std::size_t kChunkOps = 1000;
    constexpr int kPasses = 16;
    const std::vector<Addr> addrs = addressStream(kOps);

    Rig rig;
    CritPathAnalyzer analyzer;
    AnalyzerOnlySink sink(analyzer);

    // Warm caches, hash tables, and scratch high-water marks once;
    // after this every pass over the stream is idempotent, so the
    // on/off halves of each pair see identical state.
    for (Addr a : addrs)
        rig.touch(a);

    // Arming the recorder without a sink must be free: no caller
    // ever arms it, so the transfer pays a single pointer test.
    ModeToggle armed{rig, nullptr, 64};
    double armed_frac =
        pairedOverhead(armed, addrs, kChunkOps, kPasses);

    // The full profiled configuration (the cable_sim default for
    // --critpath-out / --metrics-out): the analyzer consuming every
    // event, spans at the default 1-in-64 period.
    ModeToggle profiled{rig, &sink, 64};
    double profiled_frac =
        pairedOverhead(profiled, addrs, kChunkOps, kPasses);

    std::uint64_t spanned =
        rig.channel.spanRecorder().sampledTransfers();
    std::printf("micro_trace: overhead-check: armed=%+.2f%% "
                "profiled=%+.2f%% (chunk-paired medians, %d "
                "passes) spanned=%llu\n",
                armed_frac * 100.0, profiled_frac * 100.0, kPasses,
                static_cast<unsigned long long>(spanned));

    int rc = 0;
    if (spanned == 0) {
        std::printf("micro_trace: FAIL: profiled phase recorded no "
                    "spans — the comparison is vacuous\n");
        rc = 1;
    }
    if (armed_frac > 0.01) {
        std::printf("micro_trace: FAIL: span sampling without a "
                    "sink cost %.2f%% (limit 1%%)\n",
                    armed_frac * 100.0);
        rc = 1;
    }
    if (profiled_frac > 0.02) {
        std::printf("micro_trace: FAIL: profiled configuration cost "
                    "%.2f%% (limit 2%%)\n",
                    profiled_frac * 100.0);
        rc = 1;
    }
    if (rc == 0)
        std::printf("micro_trace: overhead-check OK\n");
    return rc;
}

/** One synthetic stationary epoch delta with every counter the
 *  detector's feature vector reads. */
StatSet
syntheticEpoch()
{
    StatSet s;
    s.add("searches", 1000);
    s.add("ht_hits", 500);
    s.add("raw_bits", 200000);
    s.add("wire_bits", 100000);
    s.add("transfers", 1000);
    s.hist("cbv_covered_words").record(8, 1000);
    return s;
}

int
analyticsCheck()
{
    constexpr std::size_t kOps = 50000;
    constexpr std::size_t kChunkOps = 1000;
    constexpr int kPasses = 16;
    const std::vector<Addr> addrs = addressStream(kOps);

    Rig rig;
    const StatSet epoch = syntheticEpoch();

    for (Addr a : addrs)
        rig.touch(a);

    // Detector alone: sketches stay off, so transfers pay only the
    // disabled-pointer tests and the per-chunk CUSUM update — the
    // "~0 when disabled" half of the contract.
    PhaseDetector detector_only;
    AnalyticsToggle disabled{rig, &detector_only, &epoch, false};
    double disabled_frac =
        pairedOverhead(disabled, addrs, kChunkOps, kPasses);

    // Full analytics: three sketches recording every transfer plus
    // the detector at one observation per chunk — denser than any
    // real epoch interval, so this bounds the deployed cost.
    PhaseDetector detector;
    AnalyticsToggle enabled{rig, &detector, &epoch, true};
    double enabled_frac =
        pairedOverhead(enabled, addrs, kChunkOps, kPasses);

    const QuantileSketch *frame_bits =
        rig.channel.stats().findSketch("frame_bits");
    std::uint64_t recorded = frame_bits ? frame_bits->samples() : 0;
    std::printf("micro_trace: analytics-check: disabled=%+.2f%% "
                "enabled=%+.2f%% (chunk-paired medians, %d passes) "
                "sketch_samples=%llu epochs=%llu\n",
                disabled_frac * 100.0, enabled_frac * 100.0, kPasses,
                static_cast<unsigned long long>(recorded),
                static_cast<unsigned long long>(
                    detector.epochsSeen()));

    int rc = 0;
    if (recorded == 0) {
        std::printf("micro_trace: FAIL: enabled phase recorded no "
                    "sketch samples — the comparison is vacuous\n");
        rc = 1;
    }
    if (detector.epochsSeen() == 0) {
        std::printf("micro_trace: FAIL: detector observed no epochs "
                    "— the comparison is vacuous\n");
        rc = 1;
    }
    if (disabled_frac > 0.01) {
        std::printf("micro_trace: FAIL: disabled analytics cost "
                    "%.2f%% (limit 1%%)\n",
                    disabled_frac * 100.0);
        rc = 1;
    }
    if (enabled_frac > 0.02) {
        std::printf("micro_trace: FAIL: sketches + phase detection "
                    "cost %.2f%% (limit 2%%)\n",
                    enabled_frac * 100.0);
        rc = 1;
    }
    if (rc == 0)
        std::printf("micro_trace: analytics-check OK\n");
    return rc;
}

} // namespace

BENCHMARK(BM_EncodeNoTracing);
BENCHMARK(BM_EncodeSpanSampled)->Arg(16)->Arg(64);

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--overhead-check") == 0)
            return overheadCheck();
        if (std::strcmp(argv[i], "--analytics-check") == 0)
            return analyticsCheck();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
