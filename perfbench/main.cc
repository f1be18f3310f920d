/**
 * @file
 * DTSim benchmark: the perfbench binary.
 *
 *   perfbench --workload fig07-web|web-online|file-rw
 *             [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 repeats cold units of work for S seconds (at least three)
 * and reports the end-to-end metrics as medians; --trace 1 records
 * phase spans around the calls into each layer, probes the layers with
 * the workload's trace and reports the per-layer metrics. Both check
 * the simulated outputs and print a digest of them. The last line of
 * standard output is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. perfbench/README.md documents every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "probes.hh"
#include "units.hh"

using namespace dtsim;
using namespace perfbench;

namespace {

/** Minimum cold units per untraced run, so setup_s is a median. */
constexpr int kMinRepeats = 3;

/** Host-time budget of the online re-plan probe. */
constexpr double kReplanProbeSeconds = 1.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = kRepoSeed;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1]\n"
                 "workloads: %s\n",
                 msg, workloadNames().c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!findWorkload(a.workload))
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Metrics in report order: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string& name, double value, const char* unit)
    {
        items_.push_back({name, value, unit});
    }

    bool
    allFinite() const
    {
        for (const Item& m : items_)
            if (!std::isfinite(m.value))
                return false;
        return true;
    }

    void
    print() const
    {
        for (const Item& m : items_)
            std::printf("metric %-34s %.6g %s\n", m.name.c_str(),
                        m.value, m.unit);
    }

    std::string
    json() const
    {
        std::string s = "{";
        char buf[64];
        for (const Item& m : items_) {
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
            s += (s.size() > 1 ? ", \"" : "\"") + m.name +
                 "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
                 "\"}";
        }
        return s + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Item> items_;
};

/**
 * Output checks accumulated over a run: each unit's own checks, and
 * every unit of one invocation simulating the same results.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> why;
    std::optional<std::uint64_t> firstDigest;

    void
    unit(const WorkloadSpec& w, const UnitResult& u)
    {
        attempted += u.replays.size();
        std::uint64_t bad = checkUnit(w, u, why);
        const std::uint64_t d = digest(u);
        if (!firstDigest) {
            firstDigest = d;
        } else if (d != *firstDigest) {
            bad = u.replays.size();
            why.push_back("simulated results differ between repeats "
                          "of one invocation");
        }
        failed += bad;
    }
};

std::uint64_t
simRequests(const UnitResult& u)
{
    std::uint64_t n = 0;
    for (const Replay& r : u.replays)
        n += r.result.requests;
    return n;
}

void
printDigest(const Args& a, const UnitResult& u)
{
    std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                a.workload.c_str(), a.seed, digest(u));
}

/** The generated workload's size and the headline's activity. */
void
printWorkload(const UnitResult& u)
{
    const RunResult& r = u.head().result;
    std::printf("workload: %" PRIu64 " records, %" PRIu64
                " blocks; headline %.3f simulated s, %" PRIu64
                " events, %" PRIu64 " online re-plans\n",
                u.traceRecords, r.blocks, toSeconds(r.elapsed),
                r.eventsFired, r.onlineReplans);
}

/** Per-replay table; fig07-web's matches `dtsim_cli --sweep`. */
void
printReplays(const UnitResult& u)
{
    std::printf("%-16s %-10s %-10s %-8s %-10s %-10s\n", "replay",
                "io(s)", "MB/s", "util", "cache-hit", "hdc-hit");
    for (const Replay& rp : u.replays) {
        const RunResult& r = rp.result;
        std::printf("%-16s %-10.3f %-10.2f %-8.3f %-10.3f %-10.3f\n",
                    rp.label.c_str(), toSeconds(r.ioTime),
                    r.throughputMBps, r.diskUtilization, r.cacheHitRate,
                    r.hdcHitRate);
    }
}

/** I/O-time gain of `sys` over `base`, as Table 2 defines it. */
double
gain(const RunResult& sys, const RunResult& base)
{
    return 1.0 - ratio(static_cast<double>(sys.ioTime),
                       static_cast<double>(base.ioTime));
}

void
printModelError(const char* server, double g, double hit,
                double paperGain, double paperHit)
{
    std::printf("model-error %s FOR+HDC gain %.1f%% (paper %.0f%%), "
                "HDC hit rate %.1f%% (paper %.0f%%)\n",
                server, 100.0 * g, paperGain, 100.0 * hit, paperHit);
}

/** Table 2 reference for fig07-web, at the paper's 16 KB unit. */
void
fig07ModelError(const UnitResult& u)
{
    const RunResult* segm = nullptr;
    const RunResult* forHdc = nullptr;
    for (const Replay& rp : u.replays) {
        const SystemConfig& s = rp.system;
        if (s.stripeUnitBytes != 16 * kKiB)
            continue;
        if (s.kind == SystemKind::Segm && !s.hdc.enabled())
            segm = &rp.result;
        if (s.kind == SystemKind::FOR && s.hdc.enabled())
            forHdc = &rp.result;
    }
    if (segm && forHdc)
        printModelError("web", gain(*forHdc, *segm), forHdc->hdcHitRate,
                        47, 9);
}

/** The headline's end-to-end simulated and host metrics. */
void
endToEnd(const Args& a, const WorkloadSpec& w, Metrics& m, Tally& tally)
{
    SpanLog off(false);
    std::vector<double> wall, setup, reqRate;
    double rssMb = 0.0;
    std::optional<UnitResult> last;
    const double t0 = nowSeconds();
    while (static_cast<int>(wall.size()) < kMinRepeats ||
           nowSeconds() - t0 < a.seconds) {
        last.reset();
        last.emplace(runUnit(w, a.seed, off, false));
        const UnitResult& u = *last;
        wall.push_back(u.wallS);
        setup.push_back(u.setupS);
        reqRate.push_back(
            ratio(static_cast<double>(simRequests(u)), u.replayS));
        std::printf("unit %zu: wall %.4f s, setup %.4f s, replay %.4f s\n",
                    wall.size(), u.wallS, u.setupS, u.replayS);
        tally.unit(w, u);
        if (wall.size() == 1)
            rssMb = peakRssMb();
    }
    const UnitResult& u = *last;
    std::printf("units %zu of %s at workload.scale=%g\n", wall.size(),
                w.name.c_str(), w.scale);
    printWorkload(u);
    printReplays(u);
    printDigest(a, u);
    if (w.name == "fig07-web")
        fig07ModelError(u);

    m.add("wall_s", median(wall), "s");
    m.add("setup_s", median(setup), "s");
    m.add("sim_req_per_s", median(reqRate), "1/s");
    m.add("peak_rss_mb", rssMb, "MB");
    m.add("sim_mbps", u.head().result.throughputMBps, "MB/s");
    m.add("hdc_hit_rate", u.head().result.hdcHitRate, "ratio");
}

/** Span summary: count, total and self time per span name. */
void
printSpans(const SpanLog& log)
{
    const auto& spans = log.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const SpanLog::Span& s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    struct Sum
    {
        int count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Sum> by;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        Sum& s = by[spans[i].name];
        const double d = spans[i].end - spans[i].start;
        ++s.count;
        s.total += d;
        s.self += d - child[i];
    }
    for (const auto& [name, s] : by)
        std::printf("span %-22s count %-4d total %.4f s self %.4f s\n",
                    name.c_str(), s.count, s.total, s.self);
}

/**
 * At the repository seed the benchmark's workloads must be exactly
 * the ones the public sweep path builds: SweepCache/buildWorkload and
 * runSweepPoints (what `dtsim_cli --sweep` runs) for fig07-web, and
 * buildWorkload() for the single runs.
 */
void
crossCheckPublicPath(const WorkloadSpec& w, const UnitResult& u,
                     Tally& tally)
{
    ++tally.attempted;
    bool same = true;
    if (w.name == "fig07-web") {
        std::string err;
        std::vector<SweepPoint> points =
            expandSweep(fig07Spec(baseConfig(w)), err);
        SweepCache cache;
        const std::vector<RunResult> pub =
            runSweepPoints(points, cache, u.jobs);
        same = pub.size() == u.replays.size();
        for (std::size_t i = 0; same && i < pub.size(); ++i)
            same = pub[i].ioTime == u.replays[i].result.ioTime &&
                   pub[i].throughputMBps ==
                       u.replays[i].result.throughputMBps &&
                   pub[i].hdcHitRate == u.replays[i].result.hdcHitRate;
    } else {
        SimulationConfig sim = baseConfig(w);
        sim.system = headlineSystem(w);
        const BuiltWorkload pub = buildWorkload(sim);
        const Trace& mine = u.workload->trace;
        same = pub.trace.size() == mine.size();
        for (std::size_t i = 0; same && i < mine.size(); ++i)
            same = pub.trace[i].start == mine[i].start &&
                   pub.trace[i].count == mine[i].count &&
                   pub.trace[i].isWrite == mine[i].isWrite &&
                   pub.trace[i].job == mine[i].job;
    }
    std::printf("public-path cross-check: %s\n", same ? "match" : "DIFFER");
    if (!same) {
        ++tally.failed;
        tally.why.push_back("results differ from the public sweep path");
    }
}

/** A reference replay of `u`'s trace under another system. */
RunResult
referenceReplay(const WorkloadSpec& w, const UnitResult& u,
                const SystemConfig& sys,
                const std::vector<ArrayBlock>* pins)
{
    SimulationConfig sim = baseConfig(w);
    sim.system = sys;
    Experiment e(sim);
    e.hdc(sys.hdc);
    e.replay(u.workload->trace);
    e.bitmaps(u.headlineBitmaps);
    if (pins)
        e.pins(*pins);
    return e.run();
}

void
perLayer(const Args& a, const WorkloadSpec& w, Metrics& m, Tally& tally)
{
    // Traced units alternate with untraced ones, whose wall time is
    // the reference for the tracing overhead; the pair order flips
    // each round so neither side always runs first.
    SpanLog off(false);
    std::vector<double> untraced, wall, generate, bitmaps, plan, replay,
        eff;
    std::optional<UnitResult> last;
    SpanLog log(true);
    auto runUntraced = [&] {
        const UnitResult ref = runUnit(w, a.seed, off, false);
        untraced.push_back(ref.wallS);
        tally.unit(w, ref);
    };
    const double t0 = nowSeconds();
    do {
        last.reset();
        const bool untracedFirst = wall.size() % 2 == 0;
        if (untracedFirst)
            runUntraced();
        log.clear();
        last.emplace(runUnit(w, a.seed, log, true));
        if (!untracedFirst)
            runUntraced();
        const UnitResult& u = *last;
        double pointWall = 0.0;
        for (const Replay& r : u.replays)
            pointWall += r.result.wallSeconds;
        wall.push_back(u.wallS);
        generate.push_back(log.total("workload.generate"));
        bitmaps.push_back(log.total("controller.bitmaps"));
        plan.push_back(log.total("hdc.oracle_plan"));
        replay.push_back(log.total("core.replay"));
        eff.push_back(ratio(pointWall, u.jobs * u.replayS));
        tally.unit(w, u);
    } while (nowSeconds() - t0 < a.seconds);
    const UnitResult& u = *last;
    const Replay& head = u.head();
    const RunResult& r = head.result;

    std::printf("units %zu of %s at workload.scale=%g (traced)\n",
                wall.size(), w.name.c_str(), w.scale);
    printWorkload(u);
    printSpans(log);
    printReplays(u);
    printDigest(a, u);
    const double overheadPct =
        100.0 * (median(wall) - median(untraced)) / median(untraced);
    std::printf("tracing overhead: traced unit %.4f s vs untraced "
                "%.4f s (%+.2f%%, medians of %zu each)\n",
                median(wall), median(untraced), overheadPct, wall.size());
    if (a.seed == kRepoSeed)
        crossCheckPublicPath(w, u, tally);

    // Online HDC: the replay's own counters, its cost over an oracle
    // replay of the same trace, and the re-plan probe.
    double onlineOverhead = 0.0, replanMs = 0.0;
    if (head.system.hdc.online()) {
        SystemConfig oracle = head.system;
        oracle.hdc.policy = HdcPolicy::Oracle;
        const std::vector<ArrayBlock> pins = selectPinnedBlocks(
            u.workload->trace, stripingOf(oracle),
            hdcBlocksPerDisk(oracle));
        const RunResult ref = referenceReplay(w, u, oracle, &pins);
        onlineOverhead = r.wallSeconds - ref.wallSeconds;
        const ReplanProbe rp = probeReplan(
            u.workload->trace, head.system,
            r.onlineReplans ? r.onlineMisses / r.onlineReplans : 1,
            kReplanProbeSeconds);
        replanMs = rp.replanMs;
        std::printf("online-hdc: replay %.4f s vs oracle %.4f s; "
                    "replan probe %" PRIu64 " replans\n",
                    r.wallSeconds, ref.wallSeconds, rp.replans);
    }
    if (w.name == "fig07-web") {
        fig07ModelError(u);
    } else if (w.kind == WorkloadKind::File) {
        SystemConfig segm = head.system;
        segm.kind = SystemKind::Segm;
        segm.hdc.budgetBytesPerDisk = 0;
        printModelError("file",
                        gain(r, referenceReplay(w, u, segm, nullptr)),
                        r.hdcHitRate, 21, 4);
    }

    const ProbeResult p =
        probeLayers(u.workload->trace, head.system, head.system.streams);

    std::uint64_t events = 0;
    double eventWall = 0.0;
    for (const Replay& rp : u.replays) {
        events += rp.result.eventsFired;
        eventWall += rp.result.wallSeconds;
    }
    const ControllerStats& c = r.agg;
    const double accesses = static_cast<double>(c.reads + c.writes);
    const double media = static_cast<double>(c.mediaAccesses);

    m.add("workload.generate_s", median(generate), "s");
    m.add("workload.trace_records",
          static_cast<double>(u.traceRecords), "count");
    m.add("fs.buffer_cache_hit_rate", u.fs.readHitRate(), "ratio");
    m.add("controller.bitmaps_s", median(bitmaps), "s");
    m.add("hdc.oracle_plan_s", median(plan), "s");
    m.add("core.replay_s", median(replay), "s");
    m.add("core.sweep_efficiency", median(eff), "ratio");
    m.add("hdc.online.replans", static_cast<double>(r.onlineReplans),
          "count");
    m.add("hdc.online.pins", static_cast<double>(r.onlinePins), "count");
    m.add("hdc.online.unpins", static_cast<double>(r.onlineUnpins),
          "count");
    m.add("hdc.online.overhead_s", onlineOverhead, "s");
    m.add("hdc.online.replan_ms", replanMs, "ms");
    m.add("array.map_ns", p.mapNs, "ns");
    m.add("cache.block_ns", p.blockNs, "ns");
    m.add("cache.segment_ns", p.segmentNs, "ns");
    m.add("disk.service_ns", p.serviceNs, "ns");
    m.add("controller.sched_ns", p.schedNs, "ns");
    m.add("sim.events", static_cast<double>(events), "count");
    m.add("sim.ns_per_event",
          ratio(eventWall * 1e9, static_cast<double>(events)), "ns");
    m.add("cache.hit_rate", r.cacheHitRate, "ratio");
    std::vector<RunResult> all;
    for (const Replay& rp : u.replays)
        all.push_back(rp.result);
    m.add("cache.ra_useful_ratio", aggregateSweepRa(all).accuracy(),
          "ratio");
    m.add("controller.queue_ms_per_access",
          ratio(toMillis(c.queueTime), accesses), "ms");
    m.add("disk.seek_ms_per_access", ratio(toMillis(c.seekTime), media),
          "ms");
    m.add("disk.rotation_ms_per_access",
          ratio(toMillis(c.rotTime), media), "ms");
    m.add("disk.transfer_ms_per_access",
          ratio(toMillis(c.xferTime), media), "ms");
    m.add("bus.ms_per_access", ratio(toMillis(c.busTime), accesses),
          "ms");
    m.add("disk.utilization", r.diskUtilization, "ratio");
    m.add("disk.media_accesses", media, "count");
    m.add("hdc.flush_writes", static_cast<double>(c.flushWrites),
          "count");
    m.add("bench.tracing_overhead_pct", overheadPct, "%");
}

} // namespace

int
main(int argc, char** argv)
{
    const Args a = parseArgs(argc, argv);
    const WorkloadSpec& w = *findWorkload(a.workload);

    Metrics m;
    Tally tally;
    if (a.trace)
        perLayer(a, w, m, tally);
    else
        endToEnd(a, w, m, tally);

    if (!m.allFinite()) {
        ++tally.failed;
        tally.why.push_back("a metric is not a finite number");
    }
    for (const std::string& s : tally.why)
        std::printf("check FAILED: %s\n", s.c_str());
    std::printf("fail_rate %.6g (%" PRIu64 " of %" PRIu64 " replays)\n",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                tally.failed, tally.attempted);
    m.print();
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                tally.failed == 0 ? "true" : "false", tally.attempted,
                tally.failed, m.allFinite() ? m.json().c_str() : "{}");
    return 0;
}
