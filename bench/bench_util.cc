#include "bench/bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "sim/logging.hh"

namespace dtsim {
namespace bench {

double
workloadScale()
{
    if (const char* env = std::getenv("DTSIM_BENCH_SCALE")) {
        double scale = 0.0;
        std::string err;
        if (!config::parseValue(env, scale, err))
            fatal("DTSIM_BENCH_SCALE: %s", err.c_str());
        return scale;
    }
    return 0.2;
}

void
printHeader(const std::string& title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printRow(const std::vector<std::string>& cells,
         const std::vector<int>& widths)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < widths.size() ? widths[i] : 12;
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

SweepSpec
syntheticSpec()
{
    // 128 streams, a 128 KB unit and the workload are the defaults.
    SweepSpec spec;
    spec.base.system.workers = 64;
    return spec;
}

Grid
runGrid(const std::vector<SweepSpec>& specs)
{
    Grid g;
    for (const SweepSpec& spec : specs) {
        std::string err;
        std::vector<SweepPoint> points = expandSweep(spec, err);
        if (points.empty())
            fatal("sweep expansion failed: %s", err.c_str());
        g.points.insert(g.points.end(),
                        std::make_move_iterator(points.begin()),
                        std::make_move_iterator(points.end()));
    }
    g.results = runSweepPoints(g.points, g.cache);
    return g;
}

namespace {

/** The grid of examples/sweeps/`conf` at workloadScale(). */
SweepSpec
loadFigureSpec(const std::string& conf)
{
    SweepSpec spec;
    std::string err;
    if (!loadSweepFile(std::string(DTSIM_EXAMPLES_DIR) + "/sweeps/" +
                           conf,
                       spec, err))
        fatal("%s", err.c_str());
    spec.base.scale = workloadScale();
    return spec;
}

/** Print the workload line that opens every figure table. */
void
printWorkloadLine(WorkloadKind workload, const Trace& trace)
{
    const TraceStats ts = computeStats(trace);
    std::printf("workload: %s  records=%llu  blocks=%llu  "
                "writes=%.1f%%  distinct=%llu  max-block-accesses=%llu\n",
                workloadKindTokens().format(workload).c_str(),
                static_cast<unsigned long long>(ts.records),
                static_cast<unsigned long long>(ts.blocks),
                ts.writeRecordFraction * 100.0,
                static_cast<unsigned long long>(ts.distinctBlocks),
                static_cast<unsigned long long>(ts.maxBlockAccesses));
}

} // namespace

void
stripingSweep(const std::string& conf, const std::string& figure_title)
{
    printHeader(figure_title);

    const SweepSpec spec = loadFigureSpec(conf);
    Grid g = runGrid({spec});
    // The whole grid replays one workload, already in the cache, so
    // this lookup builds nothing and its phase times stay 0.
    PreparePhases hit;
    printWorkloadLine(spec.base.workload,
                      g.cache.workload(spec.base, hit).trace);

    const std::vector<int> widths{12, 12, 12, 12, 12};
    printRow({"unit(KB)", "Segm", "Segm+HDC", "FOR", "FOR+HDC"},
             widths);
    for (std::size_t i = 0; i + 3 < g.results.size(); i += 4) {
        const std::uint64_t unit =
            g.points[i].cfg.system.stripeUnitBytes;
        printRow({std::to_string(unit / kKiB),
                  fmt(toSeconds(g.results[i + 0].ioTime)),
                  fmt(toSeconds(g.results[i + 1].ioTime)),
                  fmt(toSeconds(g.results[i + 2].ioTime)),
                  fmt(toSeconds(g.results[i + 3].ioTime))},
                 widths);
    }
}

void
hdcSweep(const std::string& conf, const std::string& figure_title)
{
    printHeader(figure_title);

    const Grid g = runGrid({loadFigureSpec(conf)});

    const std::vector<int> widths{12, 14, 14, 14, 14};
    printRow({"HDC(KB)", "Segm+HDC(s)", "FOR+HDC(s)", "hitSegm",
              "hitFOR"},
             widths);
    for (std::size_t i = 0; i + 1 < g.results.size(); i += 2) {
        const RunResult& segm = g.results[i];
        std::string for_time = "-";
        std::string for_hit = "-";
        if (g.points[i + 1].feasible) {
            for_time = fmt(toSeconds(g.results[i + 1].ioTime));
            for_hit = fmtPct(g.results[i + 1].hdcHitRate);
        }
        printRow({std::to_string(
                      g.points[i].cfg.system.hdc.budgetBytesPerDisk /
                      kKiB),
                  fmt(toSeconds(segm.ioTime)), for_time,
                  fmtPct(segm.hdcHitRate), for_hit},
                 widths);
    }
}

} // namespace bench
} // namespace dtsim
