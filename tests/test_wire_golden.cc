/**
 * @file
 * Golden wire corpus: every frame a fixed-seed CableChannel stream
 * puts on the link, digested per delegate engine and pinned against
 * tests/data/wire_golden.txt. The counter gates (cli.golden_stats_*)
 * only see sizes; this one sees the bits, so a bitstream or framing
 * rewrite that reorders, drops or pads a field fails here even when
 * every size stays the same.
 *
 * Regenerate the corpus (only for a deliberate wire-format change):
 *   CABLE_WRITE_GOLDEN=1 ./test_wire_golden
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "compress/factory.h"
#include "core/channel.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

/** FNV-1a over a frame's length and backing bytes, chained. */
class WireDigest
{
  public:
    void
    add(const Transfer &t)
    {
        writebacks_ += t.writeback ? 1 : 0;
        add(t.wire);
    }

    void
    add(const BitVec &wire)
    {
        std::uint64_t n = wire.sizeBits();
        for (unsigned i = 0; i < 8; ++i)
            mix(static_cast<std::uint8_t>(n >> (8 * i)));
        std::size_t nbytes = (n + 7) / 8;
        for (std::size_t i = 0; i < nbytes; ++i)
            mix(wire.data()[i]);
        // The MSB-first layout leaves the tail of the last byte
        // unused; it must read as zero so byte-wise consumers (the
        // table-driven CRC, checkpoint files) see a canonical image.
        if (n % 8 != 0) {
            std::uint8_t pad = static_cast<std::uint8_t>(
                0xffu >> (n % 8));
            EXPECT_EQ(wire.data()[nbytes - 1] & pad, 0)
                << "set padding bits past sizeBits()=" << n;
        }
        frames_ += 1;
        bits_ += n;
    }

    std::string
    line(const std::string &name) const
    {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s %llu %llu %llu %016llx",
                      name.c_str(),
                      static_cast<unsigned long long>(frames_),
                      static_cast<unsigned long long>(writebacks_),
                      static_cast<unsigned long long>(bits_),
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    mix(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ull;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
    std::uint64_t frames_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t bits_ = 0;
};

/**
 * Drives one fixed-seed channel stream (the allocation-guard shape:
 * a footprint larger than the remote, one access in four a store so
 * dirty victims exercise the write-back direction) and digests every
 * frame the channel emits, in emission order. The home holds half
 * the footprint, so home evictions also back-invalidate dirty remote
 * copies (the third frame source).
 */
std::string
channelStream(const std::string &name, const CableConfig &cfg)
{
    Cache home({"home", 256u << 10, 8});
    Cache remote({"remote", 128u << 10, 8});
    CableChannel channel(home, remote, cfg);

    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 21);
    Rng rng(22);

    WireDigest d;
    for (int i = 0; i < 8000; ++i) {
        Addr addr = rng.below(1 << 13) * kLineBytes;
        bool store = rng.below(4) == 0;
        if (remote.access(addr)) {
            if (store && !remote.entryAt(remote.find(addr)).dirty())
                channel.remoteUpgrade(addr);
            continue;
        }
        if (!home.probe(addr)) {
            HomeInstallResult hr =
                channel.homeInstall(addr, mem.lineAt(addr));
            if (hr.backinval_writeback)
                d.add(*hr.backinval_writeback);
        }
        FetchResult fr = channel.remoteFetch(addr, store);
        if (fr.victim_writeback)
            d.add(*fr.victim_writeback);
        d.add(fr.response);
    }
    return d.line(name);
}

/** Standalone engine output (no framing) over a fixed line set. */
std::string
engineStream(const std::string &name)
{
    CompressorPtr engine = makeCompressor(name);
    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 23);
    Rng rng(24);

    WireDigest d;
    CacheLine prev = mem.lineAt(0);
    for (int i = 0; i < 400; ++i) {
        CacheLine line = mem.lineAt(rng.below(1 << 12) * kLineBytes);
        d.add(engine->compress(line, {}));
        d.add(engine->compress(line, {&prev}));
        prev = line;
    }
    return d.line("engine." + name);
}

std::vector<std::string>
corpus()
{
    std::vector<std::string> out;
    for (const char *engine :
         {"lbe", "cpack", "cpack128", "gzip", "lzss", "oracle", "bdi"}) {
        CableConfig cfg;
        cfg.engine = engine;
        out.push_back(channelStream(std::string("channel.") + engine,
                                    cfg));
    }
    CableConfig crc8;
    crc8.frame_crc_bits = 8;
    out.push_back(channelStream("channel.lbe.crc8", crc8));
    CableConfig crc0;
    crc0.frame_crc_bits = 0;
    out.push_back(channelStream("channel.lbe.crc0", crc0));
    CableConfig off;
    off.compression_enabled = false;
    out.push_back(channelStream("channel.uncompressed", off));
    for (const std::string &name : compressorNames())
        out.push_back(engineStream(name));
    return out;
}

} // namespace

TEST(WireGolden, FramesMatchCorpus)
{
    const std::string path =
        std::string(CABLE_TEST_DATA_DIR) + "/wire_golden.txt";
    std::vector<std::string> got = corpus();
    if (std::getenv("CABLE_WRITE_GOLDEN")) {
        std::ofstream out(path);
        out << "# name frames writebacks total_bits "
               "fnv1a64(sizeBits, bytes)\n";
        for (const std::string &l : got)
            out << l << "\n";
        GTEST_SKIP() << "golden wire corpus regenerated at " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing " << path;
    std::map<std::string, std::string> want;
    std::string l;
    while (std::getline(in, l)) {
        if (l.empty() || l[0] == '#')
            continue;
        want[l.substr(0, l.find(' '))] = l;
    }
    ASSERT_EQ(want.size(), got.size());
    for (const std::string &g : got) {
        std::string name = g.substr(0, g.find(' '));
        ASSERT_TRUE(want.count(name)) << "no golden entry for " << name;
        EXPECT_EQ(g, want[name]);
    }
}
