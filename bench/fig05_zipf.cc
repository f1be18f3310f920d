/**
 * @file
 * Figure 5: normalized I/O time and HDC hit rate as a function of the
 * access-frequency (Zipf) coefficient. 16 KB files, 2 MB HDC caches,
 * no writes.
 */

#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Figure 5: normalized I/O time vs Zipf coefficient");

    // Columns per alpha: Segm, Segm+HDC, FOR, FOR+HDC.
    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<double>(
        "synthetic.zipf_alpha", {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back(bench::axis<std::uint64_t>(
        "hdc.budget_bytes_per_disk", {0, 2 * kMiB}));
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{8, 10, 12, 10, 12, 10};
    bench::printRow({"alpha", "Segm", "Segm+HDC", "FOR", "FOR+HDC",
                     "hitRate"},
                    widths);
    for (std::size_t i = 0; i + 3 < g.results.size(); i += 4) {
        const double t0 = static_cast<double>(g.results[i].ioTime);
        bench::printRow({bench::fmt(g.points[i].cfg.synthetic.zipfAlpha,
                                    1),
                         "1.000",
                         bench::fmt(g.results[i + 1].ioTime / t0),
                         bench::fmt(g.results[i + 2].ioTime / t0),
                         bench::fmt(g.results[i + 3].ioTime / t0),
                         bench::fmtPct(g.results[i + 1].hdcHitRate)},
                        widths);
    }
    return 0;
}
