/**
 * @file
 * Ablation: segment size (and with it the blind read-ahead size and
 * segment count: 128 KB/27, 256 KB/13, 512 KB/6 per Table 1), on the
 * synthetic workload.
 */

#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Ablation: segment size / read-ahead size (16 KB files)");

    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(bench::axis<std::uint64_t>(
        "disk.segment_bytes", {128 * kKiB, 256 * kKiB, 512 * kKiB}));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{12, 12, 10, 10, 10};
    bench::printRow({"seg(KB)", "segments", "Segm(s)", "FOR(s)",
                     "gain"},
                    widths);
    for (std::size_t i = 0; i + 1 < g.results.size(); i += 2) {
        const DiskParams& disk = g.points[i].cfg.system.disk;
        const RunResult& segm = g.results[i];
        const RunResult& forr = g.results[i + 1];
        bench::printRow(
            {std::to_string(disk.segmentBytes / kKiB),
             std::to_string(disk.numSegments()),
             bench::fmt(toSeconds(segm.ioTime)),
             bench::fmt(toSeconds(forr.ioTime)),
             bench::fmtPct(1.0 - static_cast<double>(forr.ioTime) /
                                     static_cast<double>(segm.ioTime))},
            widths);
    }
    return 0;
}
