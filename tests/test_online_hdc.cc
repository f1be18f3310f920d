/**
 * @file
 * Tests for the online HDC host policy (hdc.policy = online): the
 * miss sketch, re-plan ranking, oracle convergence, phase-change
 * detection, the unified pin router it issues deltas through, and
 * the adaptive FOR read-ahead depth control that ships alongside it.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "hdc/online_policy.hh"
#include "stats_text.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

/** A 2-disk array with a small HDC region, 1-block stripe units. */
struct Rig
{
    EventQueue eq;
    ArrayConfig cfg;
    std::unique_ptr<DiskArray> array;

    explicit Rig(std::uint64_t hdc_bytes = 4 * 4096)
    {
        cfg.disks = 2;
        cfg.stripeUnitBytes = 4 * kKiB;
        cfg.controller.hdcBytes = hdc_bytes;
        array = std::make_unique<DiskArray>(eq, cfg);
    }

    std::uint64_t
    pinnedTotal() const
    {
        std::uint64_t n = 0;
        for (unsigned d = 0; d < array->disks(); ++d)
            n += array->controller(d).hdcPinnedBlocks();
        return n;
    }
};

HdcSpec
onlineSpec()
{
    HdcSpec h;
    h.policy = HdcPolicy::Online;
    h.budgetBytesPerDisk = 4 * 4096;
    return h;
}

TEST(OnlineHdc, ReplanPinsHottestBlocksPerDisk)
{
    Rig r;   // Capacity: 4 blocks per disk.
    OnlineHdcPolicy p(*r.array, onlineSpec());

    // Unit striping: block b lives on disk b % 2. Blocks 0..15 seen
    // once; 0,2,4,6 (disk 0) and 1,3,5,7 (disk 1) seen three more
    // times -- they are the per-disk top-4.
    for (ArrayBlock b = 0; b < 16; ++b)
        p.observeMiss(b);
    for (int rep = 0; rep < 3; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    EXPECT_EQ(p.counters().misses, 16u + 24u);

    p.replan();
    r.eq.run();   // Apply any deferred commands.

    EXPECT_EQ(p.pinnedNow(), 8u);
    EXPECT_EQ(r.pinnedTotal(), 8u);
    for (ArrayBlock b = 0; b < 8; ++b)
        EXPECT_TRUE(p.isPinned(b)) << "block " << b;
    for (ArrayBlock b = 8; b < 16; ++b)
        EXPECT_FALSE(p.isPinned(b)) << "block " << b;
    EXPECT_EQ(p.counters().pins, 8u);
    EXPECT_EQ(p.counters().unpins, 0u);
}

TEST(OnlineHdc, ConvergesToOraclePlan)
{
    // A stationary Zipf workload: after a few observe/replan epochs
    // the sketch's per-disk top-k must largely agree with the oracle
    // planner's pick over the same trace.
    SystemConfig sys;
    sys.disks = 2;
    sys.stripeUnitBytes = 4 * kKiB;
    sys.hdc.budgetBytesPerDisk = 64 * 4096;

    SyntheticParams sp;
    sp.numFiles = 2000;
    sp.fileSizeBytes = 4 * kKiB;
    sp.numRequests = 20000;
    sp.zipfAlpha = 0.9;
    const SyntheticWorkload w =
        makeSynthetic(sp, sys.disks * sys.disk.totalBlocks());

    StripingMap striping(sys.disks,
                         sys.stripeUnitBytes / sys.disk.blockSize,
                         sys.disk.totalBlocks());
    const std::vector<ArrayBlock> oracle = selectPinnedBlocks(
        w.trace, striping, hdcBlocksPerDisk(sys));
    ASSERT_FALSE(oracle.empty());

    Rig r(sys.hdc.budgetBytesPerDisk);
    HdcSpec spec = onlineSpec();
    spec.budgetBytesPerDisk = sys.hdc.budgetBytesPerDisk;
    OnlineHdcPolicy p(*r.array, spec);

    // Stream the trace in 4 epochs, re-planning after each.
    const std::size_t n = w.trace.size();
    std::size_t i = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const std::size_t end = n * (epoch + 1) / 4;
        for (; i < end; ++i)
            p.onAccess(w.trace[i].start, w.trace[i].count);
        p.replan();
    }
    r.eq.run();

    std::size_t agree = 0;
    for (const ArrayBlock b : oracle)
        if (p.isPinned(b))
            ++agree;
    // The sketch sees the same stationary distribution the oracle
    // ranked, so the pin sets should mostly coincide.
    EXPECT_GE(agree * 10, oracle.size() * 6)
        << agree << " of " << oracle.size() << " oracle pins held";
    EXPECT_EQ(r.pinnedTotal(), p.pinnedNow());
}

TEST(OnlineHdc, PhaseChangeTriggersFastReplanAndRotation)
{
    Rig r;
    HdcSpec spec = onlineSpec();
    spec.replanIntervalTicks = 400;
    OnlineHdcPolicy p(*r.array, spec);

    // Phase A: blocks 0..7 hot; two calm epochs.
    for (int rep = 0; rep < 8; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.nextIntervalTicks(), 400);   // First plan: no churn.
    for (int rep = 0; rep < 8; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.counters().fastReplans, 0u);
    EXPECT_EQ(p.nextIntervalTicks(), 400);

    // Phase B: the hot set jumps to 100..107.
    for (int rep = 0; rep < 32; ++rep)
        for (ArrayBlock b = 100; b < 108; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.counters().fastReplans, 1u);
    EXPECT_EQ(p.nextIntervalTicks(), 100);   // Base / 4.

    r.eq.run();
    for (ArrayBlock b = 100; b < 108; ++b)
        EXPECT_TRUE(p.isPinned(b)) << "block " << b;
    EXPECT_FALSE(p.isPinned(0));
    EXPECT_EQ(p.pinnedNow(), 8u);
    EXPECT_EQ(r.pinnedTotal(), 8u);
    EXPECT_EQ(p.counters().pins - p.counters().unpins, p.pinnedNow());
}

TEST(OnlineHdc, RunnerIntegration)
{
    // Full run through the facade: the policy must observe, re-plan
    // on its interval, and report activity in the result.
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.stripeUnitBytes = 32 * kKiB;
    cfg.kind = SystemKind::Segm;
    cfg.hdc.policy = HdcPolicy::Online;
    cfg.hdc.budgetBytesPerDisk = kMiB;
    cfg.hdc.replanIntervalTicks = 20 * kMsec;

    SyntheticParams sp;
    sp.numFiles = 500;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 3000;
    sp.zipfAlpha = 0.9;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());

    Experiment e(cfg);
    e.replay(w.trace);
    const RunResult r = e.run();

    EXPECT_GT(r.onlineMisses, 0u);
    EXPECT_GT(r.onlineReplans, 0u);
    EXPECT_GT(r.onlinePins, 0u);
    EXPECT_GT(r.requests, 0u);
    // The oracle warm-start must NOT have run: pins come only from
    // the online deltas.
    EXPECT_GE(r.onlinePins, r.onlineUnpins);
}

TEST(OnlineHdc, OracleDumpStaysPure)
{
    // An oracle-policy run's dump must carry no sim.hdc.online group
    // and no hdc./ra. header lines: byte-compatibility with
    // pre-online dumps is load-bearing (golden_dump_smoke).
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.kind = SystemKind::Segm;
    cfg.hdc.budgetBytesPerDisk = kMiB;   // Default policy: oracle.

    SyntheticParams sp;
    sp.numFiles = 200;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 500;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());

    std::ostringstream os;
    Experiment e(cfg);
    e.replay(w.trace).statsTo(StatsSink::stream(os));
    e.run();
    const std::string dump = os.str();
    EXPECT_EQ(dump.find("sim.hdc.online"), std::string::npos);
    EXPECT_NE(dump.find("sim.config.hdc_kb_per_disk 1024"),
              std::string::npos);
}

TEST(OnlineHdc, HeaderElisionFollowsPolicy)
{
    SimulationConfig sim;
    const std::string plain = renderConfigHeader(sim);
    // Defaults: the optional groups stay silent.
    EXPECT_EQ(plain.find("#conf hdc."), std::string::npos);
    EXPECT_EQ(plain.find("#conf ra."), std::string::npos);

    // One changed entry shows its whole group.
    sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;
    const std::string oracle = renderConfigHeader(sim);
    EXPECT_NE(oracle.find("#conf hdc.policy = oracle"),
              std::string::npos);
    EXPECT_NE(oracle.find("#conf hdc.churn_threshold = 0.5"),
              std::string::npos);
    EXPECT_EQ(oracle.find("#conf ra."), std::string::npos);

    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.ra.adaptive = true;
    const std::string online = renderConfigHeader(sim);
    EXPECT_NE(online.find("hdc.policy = online"), std::string::npos);
    EXPECT_NE(online.find("ra.adaptive = true"), std::string::npos);
}

TEST(PinRouter, ImmediateBeforeRunDeferredDuring)
{
    Rig r;
    // Host time 0: the router applies synchronously (warm start).
    EXPECT_TRUE(r.array->pinLogicalBlock(0));
    EXPECT_EQ(r.pinnedTotal(), 1u);

    // Mid-run (host clock advanced): the same call defers the
    // command to the disk timeline.
    std::uint64_t seen_at_call = ~0ull;
    r.eq.scheduleAt(1 * kMsec, [&] {
        EXPECT_TRUE(r.array->pinLogicalBlock(1));
        seen_at_call = r.pinnedTotal();
    });
    r.eq.run();
    EXPECT_EQ(seen_at_call, 1u);   // Not yet applied inside the call.
    EXPECT_EQ(r.pinnedTotal(), 2u);

    // Unpin routes the same way.
    r.eq.scheduleAt(2 * kMsec, [&] {
        EXPECT_TRUE(r.array->unpinLogicalBlock(0));
    });
    r.eq.run();
    EXPECT_EQ(r.pinnedTotal(), 1u);
}

TEST(AdaptiveRa, DepthControlRunsAndExports)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.kind = SystemKind::FOR;
    sim.system.disks = 4;
    sim.system.ra.adaptive = true;
    sim.system.ra.windowBlocks = 64;

    std::ostringstream os;
    Experiment e(sim);
    e.statsTo(StatsSink::stream(os));
    const RunResult r = e.run();
    EXPECT_GT(r.requests, 0u);

    const std::string dump = os.str();
    EXPECT_NE(dump.find("read_ahead.depth_blocks"),
              std::string::npos);
    EXPECT_NE(dump.find("read_ahead.depth_windows"),
              std::string::npos);
    EXPECT_NE(dump.find("#conf ra.adaptive = true"),
              std::string::npos);
}

TEST(AdaptiveRa, OffPathMatchesDefaultByteForByte)
{
    // ra.adaptive=false must not perturb anything: explicit defaults
    // and an untouched RaSpec give byte-identical dumps.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.kind = SystemKind::FOR;
    sim.system.disks = 4;

    const auto dump = [](const SimulationConfig& s) {
        std::ostringstream os;
        Experiment e(s);
        e.statsTo(StatsSink::stream(os));
        e.run();
        return test::stripRuntime(os.str());
    };
    const std::string base = dump(sim);
    SimulationConfig explicit_off = sim;
    explicit_off.system.ra = RaSpec{};
    EXPECT_EQ(dump(explicit_off), base);
}

} // namespace
} // namespace dtsim
