/**
 * @file
 * Ablation: host policies for the HDC region (Section 5 proposes
 * both). The paper's evaluated policy pins the most-missed blocks up
 * front with perfect knowledge; the alternative it sketches is an
 * array-wide victim cache for the host buffer cache. Compared here
 * on the Web server workload.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "workload/server_models.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Ablation: HDC host policy (Web server, unit 16 KB)");

    // Rows: no HDC and top-miss pinning (the oracle policy), then the
    // victim cache, whose ghost list mirrors the host buffer cache.
    SweepSpec pinning;
    pinning.base.workload = WorkloadKind::Web;
    pinning.base.scale = bench::workloadScale();
    pinning.base.system.stripeUnitBytes = 16 * kKiB;
    SweepSpec victim = pinning;
    pinning.axes.push_back(bench::axis<std::uint64_t>(
        "hdc.budget_bytes_per_disk", {0, 2 * kMiB}));
    HdcSpec& hdc = victim.base.system.hdc;
    hdc.policy = HdcPolicy::Victim;
    hdc.budgetBytesPerDisk = 2 * kMiB;
    hdc.victimGhostBlocks =
        webServerParams(victim.base.scale).bufferCacheBlocks;
    const bench::Grid g = bench::runGrid({pinning, victim});

    const std::vector<int> widths{26, 12, 12, 12};
    bench::printRow({"policy", "time(s)", "hdc-hit", "pins"},
                    widths);

    const RunResult& none = g.results[0];
    bench::printRow({"no HDC", bench::fmt(toSeconds(none.ioTime)),
                     "-", "-"},
                    widths);

    const RunResult& top = g.results[1];
    bench::printRow({"top-miss pinning (paper)",
                     bench::fmt(toSeconds(top.ioTime)),
                     bench::fmtPct(top.hdcHitRate), "-"},
                    widths);

    const RunResult& vic = g.results[2];
    bench::printRow({"victim cache",
                     bench::fmt(toSeconds(vic.ioTime)),
                     bench::fmtPct(vic.hdcHitRate),
                     std::to_string(vic.victimPins)},
                    widths);

    std::printf("\nnote: the victim policy mirrors the host cache "
                "from the disk-access stream only,\nso its victim "
                "choices are much weaker than the paper's "
                "perfect-knowledge pinning --\nconsistent with the "
                "paper evaluating the pinning policy.\n");
    return 0;
}
