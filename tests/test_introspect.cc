/**
 * @file
 * Structure-introspection tests: the snapshot() probes of the
 * signature hash table, Way-Map Table and eviction buffer, the
 * channel-level snapshotStructures() aggregation and its occupancy
 * invariants (bucket-occupancy histogram sum == live slots ==
 * inserts - evictions), plus histogram percentile edge cases that
 * the snapshot consumers (check_metrics.py, bench_runner.py) rely
 * on.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "cache/cache.h"
#include "common/stats.h"
#include "core/channel.h"
#include "core/eviction_buffer.h"
#include "core/hash_table.h"
#include "core/wmt.h"
#include "telemetry/trace.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

CacheLine
patternLine(std::uint8_t seed)
{
    CacheLine l;
    for (unsigned i = 0; i < kLineBytes; ++i)
        l.setByte(i, static_cast<std::uint8_t>(seed + i));
    return l;
}

/** Sum of a snapshot histogram, 0 when absent. */
std::uint64_t
histSum(const StatSet &s, const std::string &name)
{
    const Histogram *h = s.findHist(name);
    return h ? h->sum() : 0;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram percentile edge cases (consumed by the snapshot JSON)
// ---------------------------------------------------------------------

TEST(HistogramEdge, EmptyHistogramPercentilesAreZero)
{
    Histogram h(Histogram::Scale::Linear, 1, 8);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.percentile(100), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramEdge, SingleValueAllPercentilesCollapse)
{
    Histogram h(Histogram::Scale::Linear, 1, 8);
    h.record(5);
    for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 5.0) << "p=" << p;
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), 5u);
}

TEST(HistogramEdge, OverflowBucketClampsButKeepsExactExtrema)
{
    // 4 linear buckets of width 1: values >= 3 land in the terminal
    // overflow bucket, whose range extends to u64 max; the exact
    // min/max ride alongside, so percentiles stay clamped to the
    // observed extrema instead of interpolating across the open
    // range.
    Histogram h(Histogram::Scale::Linear, 1, 4);
    h.record(100);
    h.record(200);
    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.bucketRange(3).second,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 200u);
    EXPECT_GE(h.percentile(50), 100.0);
    EXPECT_LE(h.percentile(99), 200.0);
}

TEST(HistogramEdge, EpochDeltaOfUntouchedHistogramIsEmpty)
{
    StatSet now;
    now.hist("refs_per_line").record(3);
    StatSet earlier = now; // epoch snapshot
    // No samples recorded between the epochs: the delta histogram
    // must report zero samples, not re-count the cumulative ones.
    StatSet d = now.delta(earlier);
    const Histogram *h = d.findHist("refs_per_line");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), 0u);
    EXPECT_EQ(h->sum(), 0u);
}

// ---------------------------------------------------------------------
// SignatureHashTable probe
// ---------------------------------------------------------------------

TEST(HashTableProbe, OccupancySumsMatchAfterScriptedInsertEvict)
{
    SignatureHashTable ht({16, 2, 0xcab1e});
    // 20 distinct signatures for one line, then 10 for another:
    // occupancy can never exceed capacity, and the histogram sum
    // must track inserts - evictions exactly.
    for (std::uint32_t s = 0; s < 20; ++s)
        ht.insert(s * 7919, LineID(1, 0));
    for (std::uint32_t s = 0; s < 10; ++s)
        ht.insert(s * 104729 + 13, LineID(2, 1));

    StatSet snap;
    ht.snapshot(snap, "home_ht_");
    std::uint64_t ins = snap.get("home_ht_inserts");
    std::uint64_t evi = snap.get("home_ht_evictions");
    EXPECT_EQ(snap.get("home_ht_occupancy"), ins - evi);
    EXPECT_EQ(snap.get("home_ht_occupancy"), ht.occupancy());
    EXPECT_EQ(histSum(snap, "home_ht_bucket_occupancy"), ins - evi);
    EXPECT_LE(snap.get("home_ht_occupancy"), snap.get("home_ht_capacity"));
    // Both lines are resident somewhere, and the duplication
    // histogram counts every live slot once.
    EXPECT_EQ(snap.get("home_ht_distinct_lids"),
              histSum(snap, "home_ht_lid_duplication") > 0
                  ? snap.findHist("home_ht_lid_duplication")->samples()
                  : 0);
    EXPECT_EQ(histSum(snap, "home_ht_lid_duplication"), ins - evi);
}

TEST(HashTableProbe, RemoveCountsEvictionsAndKeepsInvariant)
{
    SignatureHashTable ht({8, 2, 1});
    ht.insert(42, LineID(3, 0));
    ht.insert(43, LineID(3, 0));
    ht.remove(42, LineID(3, 0));
    ht.remove(999, LineID(7, 7)); // miss

    StatSet snap;
    ht.snapshot(snap, "home_ht_");
    EXPECT_EQ(snap.get("home_ht_inserts"), 2u);
    EXPECT_EQ(snap.get("home_ht_evictions"), 1u);
    EXPECT_EQ(snap.get("home_ht_removes"), 1u);
    EXPECT_EQ(snap.get("home_ht_remove_misses"), 1u);
    EXPECT_EQ(snap.get("home_ht_occupancy"), 1u);
    EXPECT_EQ(histSum(snap, "home_ht_bucket_occupancy"), 1u);
}

TEST(HashTableProbe, ClearConvertsLiveSlotsToEvictions)
{
    SignatureHashTable ht({8, 2, 1});
    for (std::uint32_t s = 0; s < 6; ++s)
        ht.insert(s, LineID(s, 0));
    std::uint64_t live = ht.occupancy();
    EXPECT_GT(live, 0u);
    ht.clear();
    StatSet snap;
    ht.snapshot(snap, "home_ht_");
    EXPECT_EQ(snap.get("home_ht_occupancy"), 0u);
    // Flush converted every live slot into an eviction, so the
    // invariant survives desync-recovery flushes.
    EXPECT_EQ(snap.get("home_ht_inserts") - snap.get("home_ht_evictions"), 0u);
    EXPECT_EQ(histSum(snap, "home_ht_bucket_occupancy"), 0u);
}

TEST(HashTableProbe, RefreshDoesNotInflateInserts)
{
    SignatureHashTable ht({8, 2, 1});
    ht.insert(5, LineID(1, 1));
    ht.insert(5, LineID(1, 1)); // identical mapping: refresh
    StatSet snap;
    ht.snapshot(snap, "home_ht_");
    EXPECT_EQ(snap.get("home_ht_inserts"), 1u);
    EXPECT_EQ(snap.get("home_ht_refreshes"), 1u);
    EXPECT_EQ(snap.get("home_ht_occupancy"), 1u);
}

// ---------------------------------------------------------------------
// WayMapTable probe
// ---------------------------------------------------------------------

TEST(WmtProbe, OccupancyAndTranslateMissRate)
{
    WayMapTable wmt({16, 2, 32, 2});
    wmt.set(0, 0, LineID(0, 1));
    wmt.set(0, 1, LineID(16, 0));
    wmt.set(3, 0, LineID(3, 0));

    // Two hits, one miss.
    EXPECT_TRUE(wmt.lookupRemoteWay(0, LineID(0, 1)).has_value());
    EXPECT_TRUE(wmt.lookupRemoteWay(3, LineID(3, 0)).has_value());
    EXPECT_FALSE(wmt.lookupRemoteWay(5, LineID(5, 1)).has_value());

    StatSet snap;
    wmt.snapshot(snap, "wmt_");
    EXPECT_EQ(snap.get("wmt_occupancy"), 3u);
    EXPECT_EQ(snap.get("wmt_sets"), 3u);
    EXPECT_EQ(snap.get("wmt_lookups"), 3u);
    EXPECT_EQ(snap.get("wmt_translate_misses"), 1u);
    EXPECT_EQ(histSum(snap, "wmt_set_occupancy"), 3u);
    // One sample per remote set.
    EXPECT_EQ(snap.findHist("wmt_set_occupancy")->samples(), 16u);

    wmt.clearAll();
    StatSet snap2;
    wmt.snapshot(snap2, "wmt_");
    EXPECT_EQ(snap2.get("wmt_occupancy"), 0u);
    EXPECT_EQ(snap2.get("wmt_clears"), 3u);
}

// ---------------------------------------------------------------------
// EvictionBuffer probe
// ---------------------------------------------------------------------

TEST(EvbufProbe, TrafficCountersAndOverflow)
{
    EvictionBuffer buf(2);
    CacheLine l = patternLine(1);
    buf.push(LineID(0, 0), l);
    buf.push(LineID(0, 1), l);
    buf.push(LineID(0, 2), l); // overflows: oldest dropped
    EXPECT_TRUE(buf.find(LineID(0, 2)).has_value());
    EXPECT_FALSE(buf.find(LineID(0, 0)).has_value()); // dropped
    buf.acknowledge(buf.lastSeq());

    StatSet snap;
    buf.snapshot(snap, "evbuf_");
    EXPECT_EQ(snap.get("evbuf_capacity"), 2u);
    EXPECT_EQ(snap.get("evbuf_size"), 0u);
    EXPECT_EQ(snap.get("evbuf_pushes"), 3u);
    EXPECT_EQ(snap.get("evbuf_overflow_drops"), 1u);
    EXPECT_EQ(snap.get("evbuf_retired"), 2u);
    EXPECT_EQ(snap.get("evbuf_finds"), 2u);
    EXPECT_EQ(snap.get("evbuf_find_hits"), 1u);
    EXPECT_EQ(snap.get("evbuf_last_seq"), 3u);
}

// ---------------------------------------------------------------------
// Channel-level aggregation
// ---------------------------------------------------------------------

namespace
{

struct Rig
{
    Cache home;
    Cache remote;
    CableChannel channel;

    explicit Rig(const CableConfig &cfg = CableConfig{})
        : home({"home", 1u << 20, 8}),
          remote({"remote", 256u << 10, 8}),
          channel(home, remote, cfg)
    {
    }

    void
    fetch(SyntheticMemory &mem, Addr addr)
    {
        if (remote.access(addr))
            return;
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.remoteFetch(addr, false);
    }
};

ValueProfile
similarValues()
{
    ValueProfile v;
    v.zero_line_frac = 0.1;
    v.zero_word_frac = 0.3;
    v.template_count = 16;
    v.region_lines = 8;
    v.template_vocab = 6;
    v.mutation_rate = 0.05;
    v.random_line_frac = 0.05;
    return v;
}

} // namespace

TEST(ChannelSnapshot, OccupancyInvariantAfterWorkload)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 7);
    // 24 tags into each of 64 remote sets: every touched set
    // overflows its 8 ways, forcing remote evictions through the
    // eviction buffer while both tables keep churning.
    for (unsigned t = 0; t < 24; ++t)
        for (unsigned s = 0; s < 64; ++s)
            rig.fetch(mem, (t * 512u + s) * kLineBytes);

    StatSet snap = rig.channel.snapshotStructures();
    for (const std::string p : {"home_ht_", "remote_ht_"}) {
        std::uint64_t ins = snap.get(p + "inserts");
        std::uint64_t evi = snap.get(p + "evictions");
        EXPECT_EQ(snap.get(p + "occupancy"), ins - evi) << p;
        EXPECT_EQ(histSum(snap, p + "bucket_occupancy"), ins - evi)
            << p;
        EXPECT_LE(snap.get(p + "occupancy"), snap.get(p + "capacity"))
            << p;
    }
    // The probe carries the exact live counts of the structures.
    EXPECT_EQ(snap.get("home_ht_occupancy"),
              rig.channel.homeTable().occupancy());
    EXPECT_EQ(snap.get("remote_ht_occupancy"),
              rig.channel.remoteTable().occupancy());
    EXPECT_EQ(histSum(snap, "wmt_set_occupancy"),
              snap.get("wmt_occupancy"));
    // The workload produced real traffic.
    EXPECT_GT(snap.get("home_ht_lookups"), 0u);
    EXPECT_GT(snap.get("wmt_lookups"), 0u);
    EXPECT_GT(snap.get("evbuf_pushes"), 0u);
}

TEST(ChannelSnapshot, InvariantSurvivesMetadataFlush)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 8);
    for (unsigned i = 0; i < 500; ++i)
        rig.fetch(mem, (i * 4096) % (1u << 20));
    rig.channel.flushMetadata();
    StatSet snap = rig.channel.snapshotStructures();
    for (const std::string p : {"home_ht_", "remote_ht_"}) {
        EXPECT_EQ(snap.get(p + "occupancy"), 0u) << p;
        EXPECT_EQ(snap.get(p + "inserts") - snap.get(p + "evictions"),
                  0u)
            << p;
    }
    EXPECT_EQ(snap.get("wmt_occupancy"), 0u);
}

TEST(ChannelSnapshot, EmitsStructSnapshotTraceEvent)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 9);
    for (unsigned i = 0; i < 32; ++i)
        rig.fetch(mem, i * kLineBytes);

    std::ostringstream os;
    JsonlTraceSink sink(os);
    rig.channel.setTraceSink(&sink);
    StatSet snap = rig.channel.snapshotStructures();
    rig.channel.setTraceSink(nullptr);

    EXPECT_EQ(sink.emitted(), 1u);
    std::string out = os.str();
    EXPECT_NE(out.find("\"ev\":\"struct_snapshot\""),
              std::string::npos)
        << out;
    // aux carries the combined hash-table occupancy.
    std::uint64_t occ = snap.get("home_ht_occupancy")
                        + snap.get("remote_ht_occupancy");
    EXPECT_NE(out.find("\"aux\":" + std::to_string(occ)),
              std::string::npos)
        << out;
}
