/**
 * @file
 * Figure 4: normalized I/O time as a function of the number of
 * simultaneous I/O streams (Segm / Block / FOR; 16 KB files).
 */

#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Figure 4: normalized I/O time vs simultaneous streams");

    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<unsigned>(
        "system.streams", {64, 128, 256, 384, 512, 768, 1024}));
    spec.axes.push_back({"system.kind", {"segm", "block", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{10, 10, 10, 10, 12};
    bench::printRow({"streams", "Segm", "Block", "FOR", "Segm(s)"},
                    widths);
    for (std::size_t i = 0; i + 2 < g.results.size(); i += 3) {
        const double t0 = static_cast<double>(g.results[i].ioTime);
        bench::printRow({std::to_string(g.points[i].cfg.system.streams),
                         "1.000",
                         bench::fmt(g.results[i + 1].ioTime / t0),
                         bench::fmt(g.results[i + 2].ioTime / t0),
                         bench::fmt(toSeconds(g.results[i].ioTime))},
                        widths);
    }
    return 0;
}
