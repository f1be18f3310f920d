/**
 * @file
 * Ablation: media request scheduler (FCFS vs LOOK vs C-LOOK vs SSTF).
 * The paper's controllers use LOOK (Section 6.1); this bench shows
 * the FOR gains are orthogonal to the scheduling policy.
 */

#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader("Ablation: media request scheduler");

    SweepSpec spec = bench::syntheticSpec();
    spec.base.system.streams = 256;
    spec.axes.push_back(
        {"system.scheduler", {"fcfs", "look", "clook", "sstf"}});
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{12, 12, 12, 12};
    bench::printRow({"scheduler", "Segm(s)", "FOR(s)", "FOR gain"},
                    widths);
    for (std::size_t i = 0; i + 1 < g.results.size(); i += 2) {
        const RunResult& segm = g.results[i];
        const RunResult& forr = g.results[i + 1];
        bench::printRow(
            {schedulerKindName(g.points[i].cfg.system.scheduler),
             bench::fmt(toSeconds(segm.ioTime)),
             bench::fmt(toSeconds(forr.ioTime)),
             bench::fmtPct(1.0 - static_cast<double>(forr.ioTime) /
                                     static_cast<double>(segm.ioTime))},
            widths);
    }
    return 0;
}
