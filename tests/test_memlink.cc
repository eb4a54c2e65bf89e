/**
 * @file
 * MemLinkSystem integration tests: end-to-end runs of the single-
 * chip simulator under every scheme, determinism, timing sanity,
 * multiprogram sharing and the on/off controller. CABLE's built-in
 * round-trip verification runs throughout, so completing a run is
 * itself a correctness check.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "golden_file.h"
#include "sim/memlink.h"

using namespace cable;

namespace
{

MemSystemConfig
smallCfg(const std::string &scheme, bool timing = false)
{
    MemSystemConfig cfg;
    cfg.scheme = scheme;
    cfg.timing = timing;
    // Shrink the hierarchy so short runs exercise evictions.
    cfg.l1_bytes = 4 << 10;
    cfg.l2_bytes = 16 << 10;
    cfg.llc_bytes_per_thread = 128 << 10;
    cfg.l4_bytes_per_thread = 512 << 10;
    return cfg;
}

} // namespace

TEST(MemLink, AllSchemesRunClean)
{
    for (const std::string scheme :
         {"raw", "zero", "bdi", "cpack", "cpack128", "lbe256",
          "gzip", "cable"}) {
        MemLinkSystem sys(smallCfg(scheme),
                          {benchmarkProfile("gcc")});
        sys.run(20000);
        EXPECT_GE(sys.bitRatio(), scheme == "raw" ? 1.0 : 0.99)
            << scheme;
        EXPECT_GT(sys.link().stats().get("transfers"), 0u) << scheme;
    }
}

TEST(MemLink, RawRatioIsExactlyOne)
{
    MemLinkSystem sys(smallCfg("raw"), {benchmarkProfile("mcf")});
    sys.run(20000);
    EXPECT_DOUBLE_EQ(sys.bitRatio(), 1.0);
    EXPECT_DOUBLE_EQ(sys.effectiveRatio(), 1.0);
}

TEST(MemLink, CableBeatsCpackOnScatteredDuplicates)
{
    // A dealII-style workload scaled so a short run streams enough
    // near-duplicates through the LLC-sized dictionary.
    WorkloadProfile prof = benchmarkProfile("dealII");
    prof.access.hot_frac = 0.3;       // cold traffic dominates
    prof.access.ws_lines = 64 << 10;
    prof.value.template_count = 256;  // duplicates recur quickly
    MemSystemConfig cfg = smallCfg("cable");
    cfg.llc_bytes_per_thread = 512 << 10;
    cfg.l4_bytes_per_thread = 2u << 20;
    MemSystemConfig cfg2 = cfg;
    cfg2.scheme = "cpack";
    MemLinkSystem cable(cfg, {prof});
    MemLinkSystem cpack(cfg2, {prof});
    cable.run(40000);
    cpack.run(40000);
    EXPECT_GT(cable.bitRatio(), cpack.bitRatio());
}

TEST(MemLink, EffectiveRatioIsCappedAt32)
{
    MemLinkSystem sys(smallCfg("cable"),
                      {benchmarkProfile("libquantum")});
    sys.run(30000);
    EXPECT_LE(sys.effectiveRatio(), 32.0);
    EXPECT_GE(sys.effectiveRatio(), 1.0);
}

TEST(MemLink, DeterministicAcrossRuns)
{
    MemSystemConfig cfg = smallCfg("cable", true);
    MemLinkSystem a(cfg, {benchmarkProfile("gcc")});
    MemLinkSystem b(cfg, {benchmarkProfile("gcc")});
    a.run(15000);
    b.run(15000);
    EXPECT_EQ(a.maxTime(), b.maxTime());
    EXPECT_EQ(a.link().stats().get("flits"),
              b.link().stats().get("flits"));
    EXPECT_DOUBLE_EQ(a.bitRatio(), b.bitRatio());
}

TEST(MemLink, SeedChangesOutcome)
{
    MemSystemConfig c1 = smallCfg("cable", true);
    MemSystemConfig c2 = c1;
    c2.seed = 999;
    MemLinkSystem a(c1, {benchmarkProfile("gcc")});
    MemLinkSystem b(c2, {benchmarkProfile("gcc")});
    a.run(15000);
    b.run(15000);
    EXPECT_NE(a.maxTime(), b.maxTime());
}

TEST(MemLink, TimingAccountsCompressionLatency)
{
    // Single-threaded, uncontended link: gzip's 96-cycle latency
    // must cost more time than raw (Fig 17's effect).
    MemLinkSystem raw(smallCfg("raw", true),
                      {benchmarkProfile("omnetpp")});
    MemLinkSystem gz(smallCfg("gzip", true),
                     {benchmarkProfile("omnetpp")});
    raw.run(20000);
    gz.run(20000);
    EXPECT_GT(gz.maxTime(), raw.maxTime());
    // And the slowdown is bounded (not a simulation artifact).
    EXPECT_LT(static_cast<double>(gz.maxTime())
                  / static_cast<double>(raw.maxTime()),
              2.0);
}

TEST(MemLink, InstructionAccountingMatchesOps)
{
    MemLinkSystem sys(smallCfg("raw", true),
                      {benchmarkProfile("hmmer")});
    sys.run(10000);
    // mem_ratio 0.24 -> about 41K instructions for 10K ops.
    double ratio =
        10000.0 / static_cast<double>(sys.instructions(0));
    EXPECT_NEAR(ratio, benchmarkProfile("hmmer").access.mem_ratio,
                0.05);
}

TEST(MemLink, MultiprogramSharedLlc)
{
    MemSystemConfig cfg = smallCfg("cable");
    std::vector<WorkloadProfile> progs{
        benchmarkProfile("gcc"), benchmarkProfile("bzip2"),
        benchmarkProfile("hmmer"), benchmarkProfile("soplex")};
    MemLinkSystem sys(cfg, progs);
    EXPECT_EQ(sys.numThreads(), 4u);
    EXPECT_EQ(sys.llc().sizeBytes(), 4 * cfg.llc_bytes_per_thread);
    sys.run(8000);
    EXPECT_GT(sys.bitRatio(), 1.0);
}

TEST(MemLink, CooperativeCopiesShareValues)
{
    // Four copies of the same program with shared value seeds: the
    // CABLE dictionary sees cross-program duplicates (Fig 15).
    MemSystemConfig cfg = smallCfg("cable");
    cfg.shared_value_seed = true;
    std::vector<WorkloadProfile> progs(4, benchmarkProfile("gcc"));
    MemLinkSystem shared(cfg, progs);
    shared.run(8000);

    MemSystemConfig cfg2 = smallCfg("cable");
    cfg2.shared_value_seed = false;
    MemLinkSystem unrelated(cfg2, progs);
    unrelated.run(8000);

    EXPECT_GT(shared.bitRatio(), unrelated.bitRatio() * 0.95);
}

TEST(MemLink, OnOffControllerDisablesWhenIdle)
{
    // A compute-bound workload leaves the link idle; the controller
    // should turn compression off, pushing the ratio toward 1.
    MemSystemConfig ctl = smallCfg("cable", true);
    ctl.onoff_control = true;
    ctl.onoff_period = 50000;
    MemLinkSystem sys(ctl, {benchmarkProfile("povray")});
    sys.run(60000);

    MemSystemConfig no_ctl = smallCfg("cable", true);
    MemLinkSystem base(no_ctl, {benchmarkProfile("povray")});
    base.run(60000);

    EXPECT_LT(sys.bitRatio(), base.bitRatio() + 0.01);
    // Raw sends after the controller trips shed the compression
    // latency; allow sampling jitter.
    EXPECT_LE(sys.maxTime(),
              base.maxTime() + base.maxTime() / 100);
}

TEST(MemLink, EnergyBreakdownPopulated)
{
    MemLinkSystem sys(smallCfg("cable", true),
                      {benchmarkProfile("mcf")});
    sys.run(20000);
    auto b = sys.energy().breakdown(sys.maxTime());
    EXPECT_GT(b["link"], 0.0);
    EXPECT_GT(b["dram"], 0.0);
    EXPECT_GT(b["comp_engine"], 0.0);
    EXPECT_GT(b["comp_sram"], 0.0);
    EXPECT_GT(b["sram_static"], 0.0);
    EXPECT_GT(b["total"], b["link"]);
}

TEST(MemLink, CompressionReducesLinkEnergy)
{
    MemLinkSystem raw(smallCfg("raw", true),
                      {benchmarkProfile("mcf")});
    MemLinkSystem cable(smallCfg("cable", true),
                        {benchmarkProfile("mcf")});
    raw.run(20000);
    cable.run(20000);
    auto br = raw.energy().breakdown(raw.maxTime());
    auto bc = cable.energy().breakdown(cable.maxTime());
    EXPECT_LT(bc["link"], br["link"]);
}

TEST(MemLink, SharedLinkAcrossSystems)
{
    LinkModel shared({16, 9.6, 2.0, false, 40});
    MemSystemConfig cfg = smallCfg("cable", true);
    MemLinkSystem a(cfg, {benchmarkProfile("mcf")}, &shared);
    MemSystemConfig cfg2 = cfg;
    cfg2.seed = 5;
    MemLinkSystem b(cfg2, {benchmarkProfile("mcf")}, &shared);
    a.run(5000);
    b.run(5000);
    EXPECT_GT(shared.stats().get("transfers"), 0u);
}

TEST(MemLink, ToggleCountingRuns)
{
    MemSystemConfig cfg = smallCfg("cable");
    cfg.count_toggles = true;
    MemLinkSystem sys(cfg, {benchmarkProfile("gcc")});
    sys.run(10000);
    EXPECT_GT(sys.link().stats().get("toggles"), 0u);
}

TEST(MemLink, CableDecoupledFromReplacementPolicy)
{
    // §II-C: CABLE tracks evictions precisely, so compression holds
    // whatever the LLC replacement policy.
    double ratios[3];
    int i = 0;
    for (ReplacementPolicy pol :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random}) {
        MemSystemConfig cfg = smallCfg("cable");
        cfg.llc_policy = pol;
        MemLinkSystem sys(cfg, {benchmarkProfile("gcc")});
        sys.run(30000);
        ratios[i++] = sys.bitRatio();
    }
    for (int k = 1; k < 3; ++k) {
        EXPECT_GT(ratios[k], ratios[0] * 0.8);
        EXPECT_LT(ratios[k], ratios[0] * 1.2);
    }
}

TEST(MemLink, MultiprogramTimedRunMatchesGolden)
{
    // The only path through the per-thread back-invalidation loop:
    // several programs share the LLC, so an LLC victim of one
    // program is merged out of its owner's private L1/L2.
    MemSystemConfig cfg = smallCfg("cable", true);
    cfg.seed = 3;
    std::vector<WorkloadProfile> progs{
        benchmarkProfile("mcf"), benchmarkProfile("omnetpp"),
        benchmarkProfile("gcc"), benchmarkProfile("soplex")};
    for (WorkloadProfile &p : progs)
        p.access.store_frac = 0.4;
    MemLinkSystem sys(cfg, progs);
    sys.run(40000);
    std::ostringstream os;
    sys.protocol().stats().dump(os);
    for (unsigned t = 0; t < sys.numThreads(); ++t)
        os << "thread " << t << " instructions "
           << sys.instructions(t) << " time " << sys.threadTime(t)
           << "\n";
    for (const auto &[k, v] : sys.energy().breakdown(sys.maxTime()))
        os << "energy " << k << " " << static_cast<long long>(v * 1e3)
           << "\n";
    expectMatchesGolden("memlink_multiprogram.txt", os.str());
}
