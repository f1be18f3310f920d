/**
 * @file
 * Ablation: RAID-0 striping vs RAID-10 mirroring (Section 2.2 notes
 * reliable servers often need replication). Same 8 physical disks;
 * mirroring halves the capacity but serves each read from the
 * less-loaded replica and pays double writes. FOR's gains persist
 * under mirroring.
 */

#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Ablation: RAID-0 vs RAID-10 (8 physical disks)");

    SweepSpec spec = bench::syntheticSpec();
    spec.base.synthetic.numRequests = 8000;
    spec.axes.push_back(
        bench::axis<double>("synthetic.write_prob", {0.0, 0.3}));
    spec.axes.push_back(
        bench::axis<bool>("system.mirrored", {false, true}));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    const bench::Grid g = bench::runGrid({spec});

    const std::vector<int> widths{12, 12, 12, 12};
    bench::printRow({"writes", "layout", "Segm(s)", "FOR(s)"},
                    widths);
    for (std::size_t i = 0; i + 1 < g.results.size(); i += 2) {
        const SimulationConfig& cfg = g.points[i].cfg;
        bench::printRow({bench::fmtPct(cfg.synthetic.writeProb, 0),
                         cfg.system.mirrored ? "RAID-10" : "RAID-0",
                         bench::fmt(toSeconds(g.results[i].ioTime)),
                         bench::fmt(toSeconds(g.results[i + 1].ioTime))},
                        widths);
    }
    return 0;
}
