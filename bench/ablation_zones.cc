/**
 * @file
 * Ablation: flat vs zoned recording. Table 1 models a single 54 MB/s
 * raw rate; the real drive is zoned (340-440 sectors/track). This
 * bench checks that the headline FOR comparison is insensitive to
 * that simplification.
 */

#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader("Ablation: flat vs zoned recording");

    SweepSpec spec = bench::syntheticSpec();
    spec.axes.push_back(
        bench::axis<unsigned>("disk.recording_zones", {0, 4, 8, 16}));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{10, 10, 10, 10};
    bench::printRow({"zones", "Segm(s)", "FOR(s)", "gain"}, widths);
    for (std::size_t i = 0; i + 1 < g.results.size(); i += 2) {
        const unsigned zones = g.points[i].cfg.system.disk.recordingZones;
        const RunResult& segm = g.results[i];
        const RunResult& forr = g.results[i + 1];
        bench::printRow(
            {zones == 0 ? "flat" : std::to_string(zones),
             bench::fmt(toSeconds(segm.ioTime)),
             bench::fmt(toSeconds(forr.ioTime)),
             bench::fmtPct(1.0 - static_cast<double>(forr.ioTime) /
                                     static_cast<double>(segm.ioTime))},
            widths);
    }
    return 0;
}
