/**
 * @file
 * Figure-7 equivalence: a striping sweep expressed as a sweep config
 * file and run through the config-driven sweep driver must produce
 * results identical (to the tick) to the hand-wired run sequence the
 * figure benches used -- same workload build, same bitmaps, same HDC
 * pin plan, same replay.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/sweep_driver.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "workload/server_models.hh"

using namespace dtsim;

namespace {

constexpr double kScale = 0.01;

TEST(Fig07Equivalence, SweepFileMatchesHandWiredRuns)
{
    // The fig07 grid shape at test scale: striping unit rows, the
    // figure's Segm / Segm+HDC / FOR / FOR+HDC columns.
    const std::string sweep_text =
        "workload.kind = web\n"
        "workload.scale = " + std::to_string(kScale) + "\n"
        "sweep system.stripe_unit_bytes = 16384, 65536\n"
        "sweep system.kind = segm, for\n"
        "sweep hdc.budget_bytes_per_disk = 0, 2097152\n";

    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(loadSweepText(sweep_text, "fig07.conf", spec, err))
        << err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    ASSERT_EQ(points.size(), 8u) << err;

    const std::vector<RunResult> driver = runSweepPoints(points);
    ASSERT_EQ(driver.size(), 8u);

    // The hand-wired equivalent, exactly as the pre-config figure
    // benches did it: build the workload once, bitmaps per unit, a
    // pin plan per (unit, budget), then one replay per cell.
    const ServerModelParams params = webServerParams(kScale);
    SystemConfig base;
    base.streams = params.streams;
    ServerWorkload w = makeServerWorkload(
        params, base.disks * base.disk.totalBlocks());

    std::size_t i = 0;
    for (std::uint64_t unit_bytes : {16384u, 65536u}) {
        SystemConfig cfg = base;
        cfg.stripeUnitBytes = unit_bytes;
        StripingMap striping(cfg.disks,
                             cfg.stripeUnitBytes / cfg.disk.blockSize,
                             cfg.disk.totalBlocks());
        const std::vector<LayoutBitmap> bitmaps =
            w.image->buildBitmaps(striping);

        for (SystemKind kind : {SystemKind::Segm, SystemKind::FOR}) {
            for (std::uint64_t hdc : {0ull, 2097152ull}) {
                cfg.kind = kind;
                cfg.hdc.budgetBytesPerDisk = hdc;

                std::vector<ArrayBlock> pinned;
                const std::vector<ArrayBlock>* pp = nullptr;
                if (hdc > 0) {
                    pinned = selectPinnedBlocks(
                        w.trace, striping, hdcBlocksPerDisk(cfg));
                    pp = &pinned;
                }
                const RunResult ref = dtsim::test::replayTrace(
                    cfg, w.trace, &bitmaps, pp);

                ASSERT_TRUE(points[i].feasible)
                    << i << ": " << points[i].whyNot;
                EXPECT_EQ(driver[i].ioTime, ref.ioTime) << "cell " << i;
                EXPECT_EQ(driver[i].flushTime, ref.flushTime)
                    << "cell " << i;
                EXPECT_EQ(driver[i].blocks, ref.blocks) << "cell " << i;
                EXPECT_EQ(driver[i].agg.reads, ref.agg.reads)
                    << "cell " << i;
                EXPECT_EQ(driver[i].agg.hdcHitRequests,
                          ref.agg.hdcHitRequests)
                    << "cell " << i;
                ++i;
            }
        }
    }
    EXPECT_EQ(i, 8u);
}

TEST(Fig07Equivalence, CacheSharingDoesNotChangeResults)
{
    // Running the same grid point through a shared SweepCache and
    // through a throwaway cache must be bit-identical.
    SweepSpec spec;
    spec.base.workload = WorkloadKind::Web;
    spec.base.scale = kScale;
    spec.axes.push_back({"system.kind", {"segm", "for"}});

    std::string err;
    std::vector<SweepPoint> a = expandSweep(spec, err);
    std::vector<SweepPoint> b = expandSweep(spec, err);
    ASSERT_EQ(a.size(), 2u);

    SweepCache shared;
    const std::vector<RunResult> ra = runSweepPoints(a, shared);
    const std::vector<RunResult> rb = runSweepPoints(b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].ioTime, rb[i].ioTime);
        EXPECT_EQ(ra[i].blocks, rb[i].blocks);
    }
}

} // namespace
