#include "units.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "array/striping.hh"
#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "sim/logging.hh"
#include "workload/server_models.hh"

using namespace dtsim;

namespace perfbench {

int
SpanLog::begin(const char* name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = nowSeconds();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
SpanLog::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = nowSeconds();
    open_.pop_back();
}

double
SpanLog::total(const std::string& name) const
{
    double t = 0.0;
    for (const Span& s : spans_)
        if (s.name == name)
            t += s.end - s.start;
    return t;
}

namespace {

constexpr std::uint64_t kHdcBudget = 2 * kMiB;
constexpr std::uint64_t kHeadlineUnit = 16 * kKiB;

/** Replay threads of the figure sweep. */
constexpr unsigned kSweepJobs = 2;

const std::vector<WorkloadSpec>&
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"fig07-web", WorkloadKind::Web, 0.1, HdcPolicy::Oracle},
        {"web-online", WorkloadKind::Web, 0.2, HdcPolicy::Online},
        {"file-rw", WorkloadKind::File, 0.1, HdcPolicy::Oracle},
    };
    return all;
}

/** Generation phase shared by every unit. */
std::unique_ptr<BuiltWorkload>
generatePhase(const SimulationConfig& sim, std::uint64_t seed,
              SpanLog& log)
{
    ScopedSpan span(log, "workload.generate");
    return std::make_unique<BuiltWorkload>(generate(sim, seed));
}

std::vector<LayoutBitmap>
bitmapsPhase(const BuiltWorkload& w, const SystemConfig& sys,
             SpanLog& log)
{
    ScopedSpan span(log, "controller.bitmaps");
    return w.image->buildBitmaps(stripingOf(sys));
}

std::vector<ArrayBlock>
planPhase(const BuiltWorkload& w, const SystemConfig& sys,
          SpanLog& log)
{
    ScopedSpan span(log, "hdc.oracle_plan");
    return selectPinnedBlocks(w.trace, stripingOf(sys),
                              hdcBlocksPerDisk(sys));
}

/** The Figure 7 grid: 8 units x {Segm, FOR} x HDC {0, 2 MiB}. */
UnitResult
fig07Unit(const WorkloadSpec& spec, std::uint64_t seed, SpanLog& log)
{
    UnitResult u;
    const double t0 = nowSeconds();

    std::string err;
    std::vector<SweepPoint> points =
        expandSweep(fig07Spec(baseConfig(spec)), err);
    if (points.empty())
        fatal("fig07-web: %s", err.c_str());

    u.workload = generatePhase(points.front().cfg, seed, log);
    const BuiltWorkload& w = *u.workload;

    // One bitmap set and one pin plan per striping unit, shared by
    // the grid points at that unit (as SweepCache shares them).
    std::map<std::uint64_t, std::vector<LayoutBitmap>> bitmaps;
    std::map<std::uint64_t, std::vector<ArrayBlock>> pins;
    for (const SweepPoint& p : points) {
        if (!p.feasible)
            fatal("fig07-web: infeasible point: %s", p.whyNot.c_str());
        const SystemConfig& sys = p.cfg.system;
        if (sys.kind == SystemKind::FOR &&
            !bitmaps.count(sys.stripeUnitBytes))
            bitmaps[sys.stripeUnitBytes] = bitmapsPhase(w, sys, log);
        if (sys.hdc.enabled() && !pins.count(sys.stripeUnitBytes))
            pins[sys.stripeUnitBytes] = planPhase(w, sys, log);
    }

    std::vector<Experiment> batch;
    batch.reserve(points.size());
    for (const SweepPoint& p : points) {
        const SystemConfig& sys = p.cfg.system;
        Experiment e(p.cfg);
        e.replay(w.trace);
        if (sys.kind == SystemKind::FOR)
            e.bitmaps(bitmaps.at(sys.stripeUnitBytes));
        if (sys.hdc.enabled())
            e.pins(pins.at(sys.stripeUnitBytes));
        e.fsStats(w.fsStats);
        e.header(renderConfigHeader(p.cfg));
        batch.push_back(std::move(e));
    }
    const double t1 = nowSeconds();

    std::vector<RunResult> results;
    {
        ScopedSpan span(log, "core.replay");
        results = Experiment::runAll(batch, kSweepJobs);
    }
    const double t2 = nowSeconds();

    u.setupS = t1 - t0;
    u.replayS = t2 - t1;
    u.wallS = t2 - t0;
    u.jobs = kSweepJobs;
    u.traceRecords = w.trace.size();
    u.fs = w.fsStats;

    // Headline: FOR+HDC at its best striping unit.
    double best = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SystemConfig& sys = points[i].cfg.system;
        u.replays.push_back(
            {std::to_string(sys.stripeUnitBytes / kKiB) + "K " +
                 sys.label(),
             sys, results[i]});
        if (sys.kind == SystemKind::FOR && sys.hdc.enabled() &&
            results[i].throughputMBps > best) {
            best = results[i].throughputMBps;
            u.headline = i;
        }
    }
    u.headlineBitmaps =
        std::move(bitmaps.at(u.head().system.stripeUnitBytes));
    return u;
}

/** One cold FOR+HDC run at 16 KiB (web-online, file-rw). */
UnitResult
singleUnit(const WorkloadSpec& spec, std::uint64_t seed, SpanLog& log)
{
    UnitResult u;
    const double t0 = nowSeconds();

    SimulationConfig sim = baseConfig(spec);
    sim.system = headlineSystem(spec);
    u.workload = generatePhase(sim, seed, log);
    const BuiltWorkload& w = *u.workload;

    u.headlineBitmaps = bitmapsPhase(w, sim.system, log);
    std::vector<ArrayBlock> pins;
    if (spec.policy == HdcPolicy::Oracle)
        pins = planPhase(w, sim.system, log);

    Experiment e(sim);
    e.hdc(sim.system.hdc);
    e.replay(w.trace);
    e.bitmaps(u.headlineBitmaps);
    if (spec.policy == HdcPolicy::Oracle)
        e.pins(pins);
    e.fsStats(w.fsStats);
    e.header(renderConfigHeader(sim));
    const double t1 = nowSeconds();

    RunResult r;
    {
        ScopedSpan span(log, "core.replay");
        r = e.run();
    }
    const double t2 = nowSeconds();

    u.setupS = t1 - t0;
    u.replayS = t2 - t1;
    u.wallS = t2 - t0;
    u.traceRecords = w.trace.size();
    u.fs = w.fsStats;
    u.replays.push_back({sim.system.label(), sim.system, r});
    return u;
}

/** FNV-1a over raw bytes. */
class Fnv
{
  public:
    template <typename T>
    void
    add(const T& v)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string s;
    for (const WorkloadSpec& w : workloads())
        s += (s.empty() ? "" : ", ") + w.name;
    return s;
}

SimulationConfig
baseConfig(const WorkloadSpec& w)
{
    SimulationConfig sim;
    sim.workload = w.kind;
    sim.scale = w.scale;
    applyModelStreams(sim);
    return sim;
}

StripingMap
stripingOf(const SystemConfig& sys)
{
    return StripingMap(logicalDisks(sys),
                       sys.stripeUnitBytes / sys.disk.blockSize,
                       sys.disk.totalBlocks());
}

SystemConfig
headlineSystem(const WorkloadSpec& w)
{
    SystemConfig sys = baseConfig(w).system;
    sys.kind = SystemKind::FOR;
    sys.stripeUnitBytes = kHeadlineUnit;
    sys.hdc.policy = w.policy;
    sys.hdc.budgetBytesPerDisk = kHdcBudget;
    return sys;
}

SweepSpec
fig07Spec(const SimulationConfig& base)
{
    SweepSpec spec;
    spec.base = base;
    spec.axes = {
        {"system.stripe_unit_bytes",
         {"4096", "8192", "16384", "32768", "65536", "131072",
          "196608", "262144"}},
        {"system.kind", {"segm", "for"}},
        {"hdc.budget_bytes_per_disk",
         {"0", std::to_string(kHdcBudget)}},
    };
    return spec;
}

BuiltWorkload
generate(const SimulationConfig& sim, std::uint64_t seed)
{
    ServerModelParams p = sim.workload == WorkloadKind::File
        ? fileServerParams(sim.scale)
        : webServerParams(sim.scale);
    p.seed += seed - kRepoSeed;

    // The rest mirrors buildWorkload() for a server model.
    BuiltWorkload out;
    out.modelStreams = p.streams;
    ServerWorkload w = makeServerWorkload(
        p, logicalDisks(sim.system) * sim.system.disk.totalBlocks());
    out.trace = std::move(w.trace);
    out.image = std::move(w.image);
    out.fsStats = w.bufferCache;
    out.hasFsStats = true;
    return out;
}

UnitResult
runUnit(const WorkloadSpec& w, std::uint64_t seed, SpanLog& log,
        bool keepWorkload)
{
    ScopedSpan span(log, "unit");
    UnitResult u = w.name == "fig07-web" ? fig07Unit(w, seed, log)
                                          : singleUnit(w, seed, log);
    if (!keepWorkload) {
        u.workload.reset();
        u.headlineBitmaps.clear();
    }
    return u;
}

std::uint64_t
digest(const UnitResult& u)
{
    Fnv f;
    f.add(u.traceRecords);
    for (const Replay& rp : u.replays) {
        const RunResult& r = rp.result;
        f.add(r.ioTime);
        f.add(r.flushTime);
        f.add(r.requests);
        f.add(r.blocks);
        f.add(r.hdcHitRate);
        f.add(r.cacheHitRate);
        f.add(r.diskUtilization);
        f.add(r.throughputMBps);
        f.add(r.meanLatencyMs);
        f.add(r.onlineReplans);
        f.add(r.onlinePins);
        f.add(r.onlineUnpins);
        const ControllerStats& a = r.agg;
        for (std::uint64_t v :
             {a.reads, a.writes, a.readBlocks, a.writeBlocks,
              a.cacheHitRequests, a.hdcHitRequests, a.hdcHitBlocks,
              a.raHitBlocks, a.mediaAccesses, a.mediaBlocks,
              a.readAheadBlocks, a.flushWrites, a.flushBlocks})
            f.add(v);
        for (Tick t : {a.seekTime, a.rotTime, a.xferTime, a.mediaBusy,
                       a.queueTime, a.busTime, a.latencySum})
            f.add(t);
    }
    return f.value();
}

std::size_t
checkUnit(const WorkloadSpec& w, const UnitResult& u,
          std::vector<std::string>& why)
{
    std::vector<bool> bad(u.replays.size(), false);
    auto fail = [&](std::size_t i, const std::string& msg) {
        bad[i] = true;
        why.push_back(u.replays[i].label + ": " + msg);
    };

    for (std::size_t i = 0; i < u.replays.size(); ++i) {
        const RunResult& r = u.replays[i].result;
        if (r.requests != u.traceRecords)
            fail(i, "completed " + std::to_string(r.requests) +
                        " of " + std::to_string(u.traceRecords) +
                        " trace records");
        if (!(r.hdcHitRate <= r.cacheHitRate && r.cacheHitRate <= 1.0))
            fail(i, "hit rates out of order: hdc " +
                        std::to_string(r.hdcHitRate) + " cache " +
                        std::to_string(r.cacheHitRate));
        if (!(r.diskUtilization <= 1.0))
            fail(i, "disk utilization " +
                        std::to_string(r.diskUtilization) + " > 1");
    }

    // The paper's headline direction: at FOR+HDC's best unit,
    // FOR+HDC delivers more than Segm.
    if (w.name == "fig07-web") {
        const Replay& h = u.head();
        for (std::size_t i = 0; i < u.replays.size(); ++i) {
            const SystemConfig& s = u.replays[i].system;
            if (s.kind == SystemKind::Segm && !s.hdc.enabled() &&
                s.stripeUnitBytes == h.system.stripeUnitBytes &&
                !(h.result.throughputMBps >
                  u.replays[i].result.throughputMBps))
                fail(u.headline, "FOR+HDC does not beat Segm at its "
                                 "best unit");
        }
    }
    return static_cast<std::size_t>(
        std::count(bad.begin(), bad.end(), true));
}

} // namespace perfbench
