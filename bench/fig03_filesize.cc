/**
 * @file
 * Figure 3: normalized I/O time as a function of the average file
 * size (Segm / Block / No-RA / FOR; 128 simultaneous streams;
 * 128 KB striping unit; 10000 complete-file requests).
 */

#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Figure 3: normalized I/O time vs average file size");

    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<std::uint64_t>(
        "synthetic.file_bytes", {4 * kKiB, 8 * kKiB, 16 * kKiB,
                                 24 * kKiB, 32 * kKiB, 48 * kKiB,
                                 64 * kKiB, 96 * kKiB, 128 * kKiB}));
    spec.axes.push_back({"system.kind", {"segm", "block", "nora", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{12, 10, 10, 10, 10, 12};
    bench::printRow({"file(KB)", "Segm", "Block", "No-RA", "FOR",
                     "Segm(s)"},
                    widths);
    for (std::size_t i = 0; i + 3 < g.results.size(); i += 4) {
        const double t0 = static_cast<double>(g.results[i].ioTime);
        bench::printRow(
            {std::to_string(g.points[i].cfg.synthetic.fileSizeBytes /
                            kKiB),
             "1.000", bench::fmt(g.results[i + 1].ioTime / t0),
             bench::fmt(g.results[i + 2].ioTime / t0),
             bench::fmt(g.results[i + 3].ioTime / t0),
             bench::fmt(toSeconds(g.results[i].ioTime))},
            widths);
    }
    return 0;
}
