/**
 * @file
 * Serial determinism: the figure-7..12 system shapes, the
 * ablation-style variants, and every same-tick coupling the canonical
 * merge order exists for -- fault injection (kill/repair/rebuild and
 * media errors), mirroring, the victim and online HDC policies, and
 * periodic snapshots / stream frames -- must keep producing the exact
 * stats dumps, request traces and stream files recorded in
 * tests/golden/serial_determinism.txt.
 *
 * Each artifact is pinned by its FNV-1a 64-bit digest and its line
 * count; the "# runtime:" / "# trace:" comment lines are stripped from
 * dumps first, and the header lines naming a side artifact's path
 * ("#conf run.trace", "#conf stats.stream") from every artifact. Side
 * artifacts go to a fresh directory per case under the system temp
 * directory ($TMPDIR), so concurrent test runs never share a path. On
 * a mismatch the artifact is written there as <case>.<kind> for
 * diffing against a build of the last good commit, and the failure
 * message carries the golden line the current build produces.
 */

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "stats_text.hh"
#include "workload/server_models.hh"

namespace dtsim {
namespace {

using test::stripRuntime;

constexpr double kScale = 0.01;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * A fresh directory for one case's side artifacts. Removed at the end
 * of the case unless a mismatch left an artifact in it.
 */
class ScratchDir
{
  public:
    ScratchDir()
    {
        std::string path = (std::filesystem::temp_directory_path() /
                            "dtsim_serial_det.XXXXXX")
                               .string();
        if (!mkdtemp(path.data()))
            throw std::runtime_error("mkdtemp failed: " + path);
        path_ = path;
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove(path_, ec);  // Only if empty.
    }

    const std::string& path() const { return path_; }

    std::string file(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/**
 * `text` without the leading header lines that name a file in
 * `scratch` ("#conf run.trace", "#conf stats.stream"); the rest,
 * binary trace records included, is kept byte for byte.
 */
std::string
dropScratchPaths(const std::string& text, const ScratchDir& scratch)
{
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size() && text[pos] == '#') {
        std::size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        const std::string line = text.substr(pos, end - pos);
        if (line.find(scratch.path()) == std::string::npos)
            out += line;
        pos = end;
    }
    return out + text.substr(pos);
}

/** "<fnv1a-64 hex> <line count>" of an artifact. */
std::string
fingerprint(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t lines = 0;
    for (const char c : text) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        lines += c == '\n';
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%016llx %llu",
                  static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(lines));
    return buf;
}

/** Golden fingerprints keyed by "<case> <kind>". */
const std::map<std::string, std::string>&
goldens()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(DTSIM_GOLDEN_DIR "/serial_determinism.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string name, kind, digest, lines;
            fields >> name >> kind >> digest >> lines;
            t[name + " " + kind] = digest + " " + lines;
        }
        return t;
    }();
    return table;
}

void
expectGolden(const std::string& name, const std::string& kind,
             const std::string& text, const ScratchDir& scratch)
{
    const std::string key = name + " " + kind;
    const std::string got = fingerprint(text);
    const auto it = goldens().find(key);
    const std::string want =
        it == goldens().end() ? "<missing>" : it->second;
    if (got == want)
        return;
    const std::string path = scratch.file(name + "." + kind);
    std::ofstream(path, std::ios::binary) << text;
    ADD_FAILURE() << key << " diverged from the golden fingerprint ("
                  << want << "); artifact written to " << path
                  << "\ngolden line: " << key << " " << got;
}

SimulationConfig
webConfig(SystemKind kind, std::uint64_t unit_bytes,
          std::uint64_t hdc_bytes)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = kScale;
    sim.system.kind = kind;
    sim.system.disks = 4;
    sim.system.stripeUnitBytes = unit_bytes;
    sim.system.hdc.budgetBytesPerDisk = hdc_bytes;
    return sim;
}

SimulationConfig
syntheticConfig(SystemKind kind)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Synthetic;
    sim.system.kind = kind;
    sim.system.disks = 4;
    sim.synthetic.numFiles = 20000;
    sim.synthetic.numRequests = 400;
    return sim;
}

SimulationConfig
degradedMirror(std::uint64_t rebuild_blocks)
{
    SimulationConfig sim = webConfig(SystemKind::Segm, 16 * kKiB, 0);
    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1 * kMsec;
    sim.system.fault.killDisk = 1;
    sim.system.fault.repairAtTicks = 500 * kMsec;
    sim.system.fault.rebuildBlocks = rebuild_blocks;
    return sim;
}

/** Which side artifact, besides the dump, a case pins. */
enum class Extra { None, Trace, Stream };

/**
 * One figure/ablation-shaped configuration. The workload is built
 * by a SweepCache (trace, FOR bitmaps) and replayed once with the
 * stats dump captured.
 */
struct DeterminismCase
{
    const char* name;
    std::function<SimulationConfig()> config;
    Extra extra = Extra::None;
    Tick statsIntervalTicks = 0;
    /** A substring the dump must contain (the coupling really ran). */
    const char* mustContain = "sim.io_time_ms";
};

const std::vector<DeterminismCase>&
cases()
{
    static const std::vector<DeterminismCase> table = {
        {"Fig07WebStriping",
         [] { return webConfig(SystemKind::Segm, 16 * kKiB, 0); }},
        {"Fig08WebForHdc",
         [] { return webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB); }},
        {"Fig10ProxyHdc",
         [] {
             SimulationConfig sim;
             sim.workload = WorkloadKind::Proxy;
             sim.scale = kScale;
             sim.system.kind = SystemKind::Segm;
             sim.system.disks = 4;
             sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;
             return sim;
         }},
        {"Fig11FileServerStriping",
         [] {
             SimulationConfig sim;
             sim.workload = WorkloadKind::File;
             sim.scale = kScale;
             sim.system.kind = SystemKind::FOR;
             sim.system.disks = 4;
             sim.system.stripeUnitBytes = 16 * kKiB;
             return sim;
         }},
        {"AblationSchedulerAndZones",
         [] {
             SimulationConfig sim = syntheticConfig(SystemKind::Block);
             sim.system.scheduler = SchedulerKind::SSTF;
             sim.system.disk.recordingZones = 8;
             sim.synthetic.fileSizeBytes = 16 * kKiB;
             sim.synthetic.writeProb = 0.2;
             sim.synthetic.zipfAlpha = 0.6;
             return sim;
         }},
        {"AblationNoReadAheadClook",
         [] {
             SimulationConfig sim = syntheticConfig(SystemKind::NoRA);
             sim.system.scheduler = SchedulerKind::CLOOK;
             sim.system.stripeUnitBytes = 32 * kKiB;
             sim.synthetic.fileSizeBytes = 8 * kKiB;
             sim.synthetic.zipfAlpha = 0.4;
             return sim;
         }},
        {"RequestTracesAreByteIdentical",
         [] { return webConfig(SystemKind::Segm, 64 * kKiB, 0); },
         Extra::Trace},
        {"MirroredWebStriping",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::Segm, 16 * kKiB, 0);
             sim.system.mirrored = true;
             return sim;
         }},
        {"MirroredForHdc",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB);
             sim.system.mirrored = true;
             return sim;
         }},
        {"FaultKillRepairRebuild", [] { return degradedMirror(512); },
         Extra::None, 0, "# fault event @"},
        {"FaultMediaErrors",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB);
             sim.system.fault.mediaErrorRate = 0.02;
             sim.system.fault.badBlocks = "0:7,2:21";
             return sim;
         }},
        {"VictimCacheHdc",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::Segm, 32 * kKiB, 2 * kMiB);
             sim.system.hdc.policy = HdcPolicy::Victim;
             sim.system.hdc.victimGhostBlocks = 256;
             return sim;
         }},
        {"OnlineHdc",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB);
             sim.system.hdc.policy = HdcPolicy::Online;
             sim.system.hdc.replanIntervalTicks = 20 * kMsec;
             return sim;
         }},
        {"OnlineHdcFastReplan",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::Segm, 32 * kKiB, 1 * kMiB);
             sim.system.hdc.policy = HdcPolicy::Online;
             sim.system.hdc.replanIntervalTicks = 5 * kMsec;
             sim.system.hdc.churnThreshold = 0.1;
             return sim;
         }},
        {"AdaptiveReadAhead",
         [] {
             SimulationConfig sim =
                 webConfig(SystemKind::FOR, 64 * kKiB, 0);
             sim.system.ra.adaptive = true;
             sim.system.ra.windowBlocks = 64;
             return sim;
         }},
        {"PeriodicSnapshots",
         [] { return webConfig(SystemKind::Segm, 16 * kKiB, 0); },
         Extra::None, 200 * kMsec, "# snapshot @"},
        {"SnapshotsDuringFaultsAndMirroring",
         [] { return degradedMirror(256); }, Extra::None, 250 * kMsec,
         "# fault event @"},
        {"StreamFramesAreByteIdentical",
         [] { return webConfig(SystemKind::Segm, 64 * kKiB, 0); },
         Extra::Stream},
    };
    return table;
}

void
PrintTo(const DeterminismCase& c, std::ostream* os)
{
    *os << c.name;
}

class SerialDeterminism
    : public ::testing::TestWithParam<DeterminismCase>
{
};

TEST_P(SerialDeterminism, MatchesGolden)
{
    const DeterminismCase& c = GetParam();
    const SimulationConfig sim = c.config();
    SweepCache cache;
    PreparePhases phases;
    const ScratchDir scratch;
    const std::string side = scratch.file("run");

    std::ostringstream os;
    Experiment e(sim.system);
    e.replay(cache.workload(sim, phases).trace);
    if (sim.system.kind == SystemKind::FOR)
        e.bitmaps(cache.bitmaps(sim, phases));
    e.statsTo(StatsSink::stream(os));
    OutputConfig& out = e.config().output;
    out.statsIntervalTicks = c.statsIntervalTicks;
    if (c.extra == Extra::Trace)
        out.trace = side;
    if (c.extra == Extra::Stream) {
        out.stream.path = side;
        out.stream.intervalTicks = 250 * kMsec;
    }
    e.run();

    const std::string dump =
        dropScratchPaths(stripRuntime(os.str()), scratch);
    ASSERT_NE(dump.find(c.mustContain), std::string::npos);
    expectGolden(c.name, "dump", dump, scratch);

    if (c.extra != Extra::None) {
        const std::string text = dropScratchPaths(slurp(side), scratch);
        std::remove(side.c_str());
        ASSERT_FALSE(text.empty());
        if (c.extra == Extra::Stream) {
            ASSERT_NE(text.find("==> dtsim stats seq=0 "),
                      std::string::npos);
        }
        expectGolden(c.name,
                     c.extra == Extra::Trace ? "trace" : "stream", text,
                     scratch);
    }
}

TEST(SerialDeterminismGolden, EveryLineBelongsToACase)
{
    // The golden file pins exactly the table: a dump line per case,
    // one side-artifact line per case that has one, nothing stale.
    std::set<std::string> want;
    for (const DeterminismCase& c : cases()) {
        want.insert(std::string(c.name) + " dump");
        if (c.extra != Extra::None)
            want.insert(std::string(c.name) +
                        (c.extra == Extra::Trace ? " trace" : " stream"));
    }
    for (const auto& line : goldens())
        EXPECT_TRUE(want.count(line.first))
            << "stale golden line: " << line.first;
    for (const std::string& key : want)
        EXPECT_TRUE(goldens().count(key)) << "no golden line: " << key;
    EXPECT_EQ(goldens().size(), want.size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SerialDeterminism, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<DeterminismCase>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace dtsim
