/**
 * @file
 * Table 2: disk throughput improvements of FOR, Segm+HDC, and
 * FOR+HDC over the conventional controller (Segm), for each server at
 * its best striping unit size (Web 16 KB, proxy 64 KB, file 128 KB).
 *
 * Improvement is reported as the paper does: the reduction in total
 * I/O time, which translates directly into a throughput increase for
 * these I/O-bound servers.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Table 2: disk throughput improvements at best striping unit");
    std::printf("(paper: Web 34%%/24%%/47%%, proxy 17%%/18%%/33%%, "
                "file 12%%/10%%/21%%)\n\n");

    const std::vector<int> widths{10, 12, 10, 12, 10, 10, 10, 10};
    bench::printRow({"server", "unit", "FOR", "Segm+HDC", "FOR+HDC",
                     "hdcHit", "hitSegm", "hitFOR"},
                    widths);

    // One grid per server, each at its best unit; all twelve runs go
    // to one pool. Columns per server: Segm, Segm+HDC, FOR, FOR+HDC.
    const struct
    {
        WorkloadKind workload;
        std::uint64_t unitBytes;
    } servers[] = {{WorkloadKind::Web, 16 * kKiB},
                   {WorkloadKind::Proxy, 64 * kKiB},
                   {WorkloadKind::File, 128 * kKiB}};
    std::vector<SweepSpec> specs;
    for (const auto& s : servers) {
        SweepSpec spec;
        spec.base.workload = s.workload;
        spec.base.scale = bench::workloadScale();
        spec.base.system.stripeUnitBytes = s.unitBytes;
        spec.axes.push_back({"system.kind", {"segm", "for"}});
        spec.axes.push_back(bench::axis<std::uint64_t>(
            "hdc.budget_bytes_per_disk", {0, 2 * kMiB}));
        specs.push_back(std::move(spec));
    }
    const bench::Grid g = bench::runGrid(specs);

    for (std::size_t i = 0; i + 3 < g.results.size(); i += 4) {
        const RunResult& segm = g.results[i];
        const RunResult& segm_hdc = g.results[i + 1];
        const RunResult& forr = g.results[i + 2];
        const RunResult& for_hdc = g.results[i + 3];
        auto improvement = [&](const RunResult& r) {
            return 1.0 - static_cast<double>(r.ioTime) /
                             static_cast<double>(segm.ioTime);
        };
        const SimulationConfig& cfg = g.points[i].cfg;
        bench::printRow(
            {workloadKindTokens().format(cfg.workload),
             std::to_string(cfg.system.stripeUnitBytes / kKiB) + " KB",
             bench::fmtPct(improvement(forr), 0),
             bench::fmtPct(improvement(segm_hdc), 0),
             bench::fmtPct(improvement(for_hdc), 0),
             bench::fmtPct(segm_hdc.hdcHitRate, 1),
             bench::fmtPct(segm.cacheHitRate, 1),
             bench::fmtPct(forr.cacheHitRate, 1)},
            widths);
    }
    return 0;
}
