/**
 * @file
 * Ablation: segment replacement policy (LRU vs FIFO vs Random vs
 * RoundRobin) for the conventional segment cache, on the synthetic
 * workload. Section 2.1 notes LRU is the usual choice but cites
 * proposals for the others.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace dtsim;

int
main()
{
    bench::printHeader(
        "Ablation: segment replacement policy (Segm, synthetic)");

    // Two halves in one pool: Segm's segment policies, then the FOR
    // block pool's MRU vs LRU.
    SweepSpec segm = bench::syntheticSpec();
    SweepSpec block = segm;
    segm.axes.push_back(
        {"system.segment_policy", {"lru", "fifo", "random", "rr"}});
    block.base.system.kind = SystemKind::FOR;
    block.axes.push_back({"system.block_policy", {"mru", "lru"}});
    const bench::Grid g = bench::runGrid({segm, block});
    const std::size_t num_segm = segm.points();

    const std::vector<int> widths{14, 12, 12};
    bench::printRow({"policy", "time(s)", "hit-rate"}, widths);
    for (std::size_t i = 0; i < num_segm; ++i) {
        const RunResult& r = g.results[i];
        bench::printRow(
            {segmentPolicyName(g.points[i].cfg.system.segmentPolicy),
             bench::fmt(toSeconds(r.ioTime)),
             bench::fmtPct(r.cacheHitRate)},
            widths);
    }

    // The block-based pool's MRU vs LRU, for comparison (Section 4
    // argues MRU fits the no-temporal-locality controller cache).
    std::printf("\nblock-pool policy (FOR):\n");
    for (std::size_t i = num_segm; i < g.results.size(); ++i) {
        const RunResult& r = g.results[i];
        bench::printRow(
            {blockPolicyName(g.points[i].cfg.system.blockPolicy),
             bench::fmt(toSeconds(r.ioTime)),
             bench::fmtPct(r.cacheHitRate)},
            widths);
    }
    return 0;
}
