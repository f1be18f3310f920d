/**
 * @file
 * Tests for the parallel sweep pool: Experiment::runAll() must return
 * results bit-identical to running each experiment alone, at any
 * thread count. Also tests the one derivation of a run's inputs: a
 * sweep's shared SweepCache builds each workload, bitmap set and pin
 * plan once, charges each build to the point that triggered it, and
 * gives a sweep point the same dump as a built Experiment.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "workload/server_models.hh"

namespace dtsim {
namespace {

/** Every counter in RunResult must match exactly. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.ioTime, b.ioTime);
    EXPECT_EQ(a.flushTime, b.flushTime);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.hdcHitRate, b.hdcHitRate);
    EXPECT_EQ(a.cacheHitRate, b.cacheHitRate);
    EXPECT_EQ(a.diskUtilization, b.diskUtilization);
    EXPECT_EQ(a.throughputMBps, b.throughputMBps);
    EXPECT_EQ(a.throughputElapsedMBps, b.throughputElapsedMBps);
    EXPECT_EQ(a.meanLatencyMs, b.meanLatencyMs);
    EXPECT_EQ(a.victimPins, b.victimPins);
    EXPECT_EQ(a.victimUnpins, b.victimUnpins);

    EXPECT_EQ(a.agg.reads, b.agg.reads);
    EXPECT_EQ(a.agg.writes, b.agg.writes);
    EXPECT_EQ(a.agg.readBlocks, b.agg.readBlocks);
    EXPECT_EQ(a.agg.writeBlocks, b.agg.writeBlocks);
    EXPECT_EQ(a.agg.cacheHitRequests, b.agg.cacheHitRequests);
    EXPECT_EQ(a.agg.hdcHitRequests, b.agg.hdcHitRequests);
    EXPECT_EQ(a.agg.hdcHitBlocks, b.agg.hdcHitBlocks);
    EXPECT_EQ(a.agg.raHitBlocks, b.agg.raHitBlocks);
    EXPECT_EQ(a.agg.mediaAccesses, b.agg.mediaAccesses);
    EXPECT_EQ(a.agg.mediaBlocks, b.agg.mediaBlocks);
    EXPECT_EQ(a.agg.readAheadBlocks, b.agg.readAheadBlocks);
    EXPECT_EQ(a.agg.flushWrites, b.agg.flushWrites);
    EXPECT_EQ(a.agg.flushBlocks, b.agg.flushBlocks);
    EXPECT_EQ(a.agg.seekTime, b.agg.seekTime);
    EXPECT_EQ(a.agg.rotTime, b.agg.rotTime);
    EXPECT_EQ(a.agg.xferTime, b.agg.xferTime);
    EXPECT_EQ(a.agg.mediaBusy, b.agg.mediaBusy);
}

/** One replay in the test batch: a config and its inputs. */
struct ReplayJob
{
    SystemConfig cfg;
    const std::vector<LayoutBitmap>* bitmaps = nullptr;
    const std::vector<ArrayBlock>* pinned = nullptr;
};

/** A small Web-server workload plus jobs across striping/HDC/kind. */
class SweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig proto;
        ServerModelParams params = webServerParams(0.01);
        params.streams = 32;
        workload_ = makeServerWorkload(
            params, proto.disks * proto.disk.totalBlocks());

        const std::uint64_t units_kb[] = {16, 64, 128};
        bitmaps_.resize(std::size(units_kb));
        for (std::size_t i = 0; i < std::size(units_kb); ++i) {
            SystemConfig cfg = proto;
            cfg.streams = params.streams;
            cfg.stripeUnitBytes = units_kb[i] * kKiB;

            bitmaps_[i] = workload_.image->buildBitmaps(cfg.striping());

            ReplayJob segm{cfg};
            segm.cfg.kind = SystemKind::Segm;
            jobs_.push_back(segm);

            ReplayJob forr{cfg, &bitmaps_[i]};
            forr.cfg.kind = SystemKind::FOR;
            jobs_.push_back(forr);
        }

        // One HDC job so pin-plan wiring is covered too.
        ReplayJob hdc{proto};
        hdc.cfg.streams = params.streams;
        hdc.cfg.hdc.budgetBytesPerDisk = 1 * kMiB;
        pinned_ = selectPinnedBlocks(workload_.trace, proto.striping(),
                                     hdcBlocksPerDisk(hdc.cfg));
        hdc.pinned = &pinned_;
        jobs_.push_back(hdc);
    }

    /** The jobs as a fresh batch of replay Experiments. */
    std::vector<Experiment>
    batch() const
    {
        std::vector<Experiment> out;
        for (const ReplayJob& job : jobs_)
            out.push_back(test::replayExperiment(
                job.cfg, workload_.trace, job.bitmaps, job.pinned));
        return out;
    }

    /** Each job run alone, in order. */
    std::vector<RunResult>
    sequential() const
    {
        std::vector<RunResult> out;
        for (const ReplayJob& job : jobs_)
            out.push_back(test::replayTrace(job.cfg, workload_.trace,
                                            job.bitmaps, job.pinned));
        return out;
    }

    ServerWorkload workload_;
    std::vector<std::vector<LayoutBitmap>> bitmaps_;
    std::vector<ArrayBlock> pinned_;
    std::vector<ReplayJob> jobs_;
};

TEST_F(SweepTest, SingleThreadMatchesSequentialRunTrace)
{
    const std::vector<RunResult> expected = sequential();
    std::vector<Experiment> experiments = batch();
    const std::vector<RunResult> swept =
        Experiment::runAll(experiments, 1);
    ASSERT_EQ(swept.size(), expected.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(swept[i], expected[i]);
    }
}

TEST_F(SweepTest, MultiThreadIsBitIdenticalToSequential)
{
    const std::vector<RunResult> expected = sequential();
    for (unsigned threads : {2u, 4u, 7u}) {
        std::vector<Experiment> experiments = batch();
        const std::vector<RunResult> swept =
            Experiment::runAll(experiments, threads);
        ASSERT_EQ(swept.size(), expected.size());
        for (std::size_t i = 0; i < swept.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "threads=" << threads << " job=" << i);
            expectIdentical(swept[i], expected[i]);
        }
    }
}

TEST(Sweep, EmptyAndThreadCountEdgeCases)
{
    std::vector<Experiment> none;
    EXPECT_TRUE(Experiment::runAll(none, 0).empty());
    EXPECT_TRUE(Experiment::runAll(none, 16).empty());
}

TEST(Sweep, JobsEnvOverridesThreadCount)
{
    setenv("DTSIM_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3u);
    setenv("DTSIM_JOBS", "0", 1);
    EXPECT_GE(sweepJobs(), 1u);
    unsetenv("DTSIM_JOBS");
    EXPECT_GE(sweepJobs(), 1u);
}

/** The indices of the results whose `phase` time is nonzero. */
std::vector<std::size_t>
pointsThatBuilt(const std::vector<RunResult>& results,
                double PreparePhases::*phase)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < results.size(); ++i)
        if (results[i].prepared.*phase > 0.0)
            out.push_back(i);
    return out;
}

TEST(SweepCachePhases, EachBuildIsChargedToThePointThatRanIt)
{
    SweepSpec spec;
    spec.base.synthetic.numRequests = 400;
    spec.base.synthetic.numFiles = 2000;
    spec.base.system.streams = 8;
    spec.base.system.hdc.policy = HdcPolicy::Oracle;
    spec.axes = {{"system.kind", {"segm", "for"}},
                 {"hdc.budget_bytes_per_disk", {"0", "1048576"}}};
    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    ASSERT_EQ(points.size(), 4u) << err;

    // Grid order: Segm, Segm+HDC, FOR, FOR+HDC. The first point builds
    // the workload, the first HDC point the pin plan, the first FOR
    // point the bitmaps; every later point hits the cache.
    SweepCache cache;
    const std::vector<RunResult> r = runSweepPoints(points, cache, 2);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(pointsThatBuilt(r, &PreparePhases::workloadMs),
              std::vector<std::size_t>{0});
    EXPECT_EQ(pointsThatBuilt(r, &PreparePhases::planMs),
              std::vector<std::size_t>{1});
    EXPECT_EQ(pointsThatBuilt(r, &PreparePhases::layoutMs),
              std::vector<std::size_t>{2});
}

/** `path`'s text without the "# runtime:" and run.stats_out lines. */
std::string
comparableDump(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# runtime:", 0) == 0 ||
            line.rfind("#conf run.stats_out", 0) == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

TEST(SweepDriver, OnePointSweepWritesTheBuiltExperimentsDump)
{
    std::string dir = (std::filesystem::temp_directory_path() /
                       "dtsim_sweep_dump.XXXXXX")
                          .string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr);

    // A server workload under FOR and oracle HDC, so the workload's
    // buffer-cache stats, the bitmaps and the pin plan all take part.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.005;
    sim.system.kind = SystemKind::FOR;
    sim.system.stripeUnitBytes = 16 * kKiB;
    sim.system.hdc.budgetBytesPerDisk = 1 * kMiB;

    SimulationConfig built = sim;
    built.output.statsOut = dir + "/built.txt";
    Experiment(built).run();

    SweepPoint point;
    point.cfg = sim;
    point.cfg.output.statsOut = dir + "/swept.txt";
    runSweepPoints({point}, 1);

    const std::string want = comparableDump(dir + "/built.txt");
    EXPECT_NE(want.find("sim.fs.read_lookups"), std::string::npos);
    EXPECT_NE(want.find("#conf system.kind = for"), std::string::npos);
    EXPECT_EQ(comparableDump(dir + "/swept.txt"), want);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dtsim
