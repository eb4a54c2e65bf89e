/**
 * @file
 * NumaSystem tests: the multi-threaded, directory-coherent NUMA
 * extension. Threads on every node share one page-interleaved
 * address space, so lines are actively shared and invalidated
 * across chips; CABLE's per-transfer verification checks the whole
 * protocol, and these tests check the directory behaviour and the
 * compression outcome on top.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "golden_file.h"
#include "sim/numa.h"

using namespace cable;

namespace
{

NumaConfig
smallCfg(const std::string &scheme, unsigned nodes = 4)
{
    NumaConfig cfg;
    cfg.scheme = scheme;
    cfg.nodes = nodes;
    cfg.l1_bytes = 4 << 10;
    cfg.l2_bytes = 16 << 10;
    cfg.llc_bytes = 128 << 10;
    cfg.cable.home_ht_factor = 0.25;
    cfg.cable.remote_ht_factor = 0.25;
    return cfg;
}

WorkloadProfile
sharedProfile()
{
    WorkloadProfile p = benchmarkProfile("gcc");
    // Heavier cold traffic over a modest set so threads overlap.
    p.access.ws_lines = 32 << 10;
    p.access.hot_frac = 0.6;
    p.access.store_frac = 0.2;
    return p;
}

} // namespace

TEST(Numa, RunsCleanWithCable)
{
    NumaSystem sys(smallCfg("cable"), sharedProfile());
    sys.run(8000); // 8000 ops x 4 threads, verified per transfer
    EXPECT_GT(sys.linkStats().get("transfers"), 0u);
    EXPECT_GT(sys.bitRatio(), 1.0);
}

TEST(Numa, LinesAreActivelyShared)
{
    NumaSystem sys(smallCfg("cable"), sharedProfile());
    sys.run(8000);
    EXPECT_GT(sys.activelySharedLines(), 0u);
}

TEST(Numa, StoresTriggerCrossNodeInvalidations)
{
    NumaSystem sys(smallCfg("cable"), sharedProfile());
    sys.run(8000);
    EXPECT_GT(sys.invalidations(), 0u);
}

TEST(Numa, AllSchemesSurviveSharing)
{
    for (const std::string scheme : {"raw", "cpack", "gzip",
                                     "cable"}) {
        NumaSystem sys(smallCfg(scheme), sharedProfile());
        sys.run(4000);
        if (scheme == "raw")
            EXPECT_DOUBLE_EQ(sys.bitRatio(), 1.0);
        else
            EXPECT_GE(sys.bitRatio(), 1.0) << scheme;
    }
}

TEST(Numa, EveryDirectedChannelCarriesTraffic)
{
    NumaSystem sys(smallCfg("cable"), sharedProfile());
    sys.run(8000);
    unsigned active = 0;
    for (unsigned k = 0; k < 4; ++k)
        for (unsigned j = 0; j < 4; ++j)
            if (k != j
                && sys.channel(k, j).stats().get("transfers") > 0)
                ++active;
    EXPECT_EQ(active, 12u); // N(N-1) directed channels all used
}

TEST(Numa, TwoAndEightNodes)
{
    for (unsigned nodes : {2u, 8u}) {
        NumaSystem sys(smallCfg("cable", nodes), sharedProfile());
        sys.run(3000);
        EXPECT_GT(sys.bitRatio(), 1.0) << nodes;
    }
}

TEST(Numa, StoreHeavySharingStressStaysConsistent)
{
    WorkloadProfile p = sharedProfile();
    p.access.store_frac = 0.5;
    p.access.ws_lines = 8 << 10; // intense overlap
    NumaSystem sys(smallCfg("cable"), p);
    sys.run(12000);
    EXPECT_GT(sys.invalidations(), 100u);
    SUCCEED(); // no verification panic across heavy invalidation
}

TEST(Numa, StoreHeavyRunMatchesGolden)
{
    // Pins the private-cache write-down and back-invalidation order
    // (L1 wins over L2; dirty data reaches the LLC through the
    // directory's sharer sweep) by its effect on every channel.
    WorkloadProfile p = sharedProfile();
    p.access.store_frac = 0.5;
    p.access.ws_lines = 8 << 10;
    NumaConfig cfg = smallCfg("cable");
    cfg.seed = 7;
    NumaSystem sys(cfg, p);
    sys.run(6000);
    std::ostringstream os;
    sys.linkStats().dump(os);
    os << "invalidations " << sys.invalidations() << "\n"
       << "actively_shared_lines " << sys.activelySharedLines()
       << "\n";
    expectMatchesGolden("numa_store_heavy.txt", os.str());
}

TEST(NumaDeath, BadNodeCount)
{
    EXPECT_EXIT(NumaSystem(smallCfg("cable", 1), sharedProfile()),
                ::testing::ExitedWithCode(1), "nodes");
}
