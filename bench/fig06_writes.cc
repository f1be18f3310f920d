/**
 * @file
 * Figure 6: normalized I/O time as a function of the percentage of
 * writes in the workload. 16 KB files, 2 MB HDC caches, Zipf
 * alpha = 0.4.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Figure 6: normalized I/O time vs write percentage");

    // Columns per write share: Segm, Segm+HDC, FOR, FOR+HDC.
    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<double>(
        "synthetic.write_prob", {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back(bench::axis<std::uint64_t>(
        "hdc.budget_bytes_per_disk", {0, 2 * kMiB}));
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{10, 10, 12, 10, 12};
    bench::printRow({"writes(%)", "Segm", "Segm+HDC", "FOR",
                     "FOR+HDC"},
                    widths);
    for (std::size_t i = 0; i + 3 < g.results.size(); i += 4) {
        const double t0 = static_cast<double>(g.results[i].ioTime);
        bench::printRow(
            {std::to_string(
                 std::lround(g.points[i].cfg.synthetic.writeProb * 100)),
             "1.000", bench::fmt(g.results[i + 1].ioTime / t0),
             bench::fmt(g.results[i + 2].ioTime / t0),
             bench::fmt(g.results[i + 3].ioTime / t0)},
            widths);
    }
    return 0;
}
