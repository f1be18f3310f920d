/**
 * @file
 * Server-trace generation golden: makeServerWorkload must keep
 * producing the exact disk trace and buffer-cache statistics recorded
 * in tests/golden/server_trace_digests.txt, for the three presets and
 * for the model variants no preset exercises (phase shifts, no and
 * perfect prefetch, no periodic sync, no day cycle, a small cache).
 *
 * Each case is pinned by an FNV-1a 64-bit digest over every
 * TraceRecord field and the six BufferCacheStats counters, plus the
 * record count. On a mismatch the failure message carries the golden
 * line the current build produces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "workload/server_models.hh"

namespace dtsim {
namespace {

constexpr double kScale = 0.01;
constexpr std::uint64_t kCapacity = 64ULL << 20;  // Blocks.

/** FNV-1a 64 over the little-endian bytes of integer fields. */
class Fnv
{
  public:
    void
    add(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            h_ = (h_ ^ (v & 0xff)) * 0x100000001b3ull;
            v >>= 8;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** "<fnv1a-64 hex> <record count>" of a generated workload. */
std::string
fingerprint(const ServerWorkload& w)
{
    Fnv h;
    for (const TraceRecord& r : w.trace) {
        h.add(r.start, 8);
        h.add(r.count, 4);
        h.add(r.isWrite ? 1 : 0, 1);
        h.add(r.job, 4);
    }
    const BufferCacheStats& s = w.bufferCache;
    for (const std::uint64_t v :
         {s.readLookups, s.readMisses, s.writeLookups, s.writeMerges,
          s.evictions, s.dirtyWritebacks})
        h.add(v, 8);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%016llx %llu",
                  static_cast<unsigned long long>(h.value()),
                  static_cast<unsigned long long>(w.trace.size()));
    return buf;
}

/** Golden fingerprints keyed by case name. */
const std::map<std::string, std::string>&
goldens()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(DTSIM_GOLDEN_DIR "/server_trace_digests.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string name, digest, records;
            fields >> name >> digest >> records;
            t[name] = digest + " " + records;
        }
        return t;
    }();
    return table;
}

struct GenerationCase
{
    const char* name;
    std::function<ServerModelParams()> params;
};

const std::vector<GenerationCase>&
cases()
{
    static const std::vector<GenerationCase> table = {
        {"Web", [] { return webServerParams(kScale); }},
        {"Proxy", [] { return proxyServerParams(kScale); }},
        {"File", [] { return fileServerParams(kScale); }},
        {"FilePhaseShift",
         [] {
             ServerModelParams p = fileServerParams(kScale);
             p.warmupRequests = 50000;
             p.phaseShiftEvery = 7000;
             p.phaseOffsetFiles = 1234;
             return p;
         }},
        {"WebPrefetchNone",
         [] {
             ServerModelParams p = webServerParams(kScale);
             p.warmupRequests = 50000;
             p.prefetch = PrefetchMode::None;
             return p;
         }},
        {"WebPrefetchPerfect",
         [] {
             ServerModelParams p = webServerParams(kScale);
             p.warmupRequests = 50000;
             p.prefetch = PrefetchMode::Perfect;
             return p;
         }},
        {"FileNoPeriodicSync",
         [] {
             ServerModelParams p = fileServerParams(kScale);
             p.warmupRequests = 50000;
             p.syncEveryRequests = 0;
             return p;
         }},
        {"WebNoDayCycle",
         [] {
             ServerModelParams p = webServerParams(kScale);
             p.dayEveryRequests = 0;
             return p;
         }},
        {"FileSmallCache",
         [] {
             // Capacity-driven eviction dominates: dirty write-backs
             // leave through evictOne, not only through sync.
             ServerModelParams p = fileServerParams(kScale);
             p.warmupRequests = 20000;
             p.bufferCacheBlocks = 2000;
             return p;
         }},
    };
    return table;
}

void
PrintTo(const GenerationCase& c, std::ostream* os)
{
    *os << c.name;
}

class ServerTraceGolden : public ::testing::TestWithParam<GenerationCase>
{
};

TEST_P(ServerTraceGolden, MatchesGolden)
{
    const GenerationCase& c = GetParam();
    const ServerWorkload w = makeServerWorkload(c.params(), kCapacity);
    ASSERT_FALSE(w.trace.empty());
    const std::string got = fingerprint(w);
    const auto it = goldens().find(c.name);
    const std::string want =
        it == goldens().end() ? "<missing>" : it->second;
    EXPECT_EQ(got, want) << c.name
                         << " diverged from the golden fingerprint"
                         << "\ngolden line: " << c.name << " " << got;
}

TEST(ServerTraceGoldenFile, EveryLineBelongsToACase)
{
    std::set<std::string> want;
    for (const GenerationCase& c : cases())
        want.insert(c.name);
    for (const auto& line : goldens())
        EXPECT_TRUE(want.count(line.first))
            << "stale golden line: " << line.first;
    for (const std::string& key : want)
        EXPECT_TRUE(goldens().count(key)) << "no golden line: " << key;
    EXPECT_EQ(goldens().size(), want.size());
}

INSTANTIATE_TEST_SUITE_P(
    Models, ServerTraceGolden, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<GenerationCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dtsim
