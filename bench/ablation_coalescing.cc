/**
 * @file
 * Ablation: request coalescing probability. Section 6.2 observes
 * that No-RA improves with coalescing but does not beat FOR even at
 * a perfect 100% coalescing probability; this bench checks that
 * claim.
 */

#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Ablation: coalescing probability (16 KB files)");

    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<double>(
        "synthetic.coalesce_prob", {0.0, 0.25, 0.5, 0.75, 0.87, 1.0}));
    spec.axes.push_back({"system.kind", {"segm", "nora", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{12, 10, 10, 10};
    bench::printRow({"coalesce", "Segm(s)", "No-RA", "FOR"}, widths);
    for (std::size_t i = 0; i + 2 < g.results.size(); i += 3) {
        const double t0 = static_cast<double>(g.results[i].ioTime);
        bench::printRow(
            {bench::fmt(g.points[i].cfg.synthetic.coalesceProb, 2),
             bench::fmt(toSeconds(g.results[i].ioTime)),
             bench::fmt(g.results[i + 1].ioTime / t0),
             bench::fmt(g.results[i + 2].ioTime / t0)},
            widths);
    }
    return 0;
}
