/**
 * @file
 * Figure 1: average sequential read (blocks) as a function of the
 * layout fragmentation degree, for 2/4/8/16/32-block files.
 *
 * Measures the allocator's actual mean physical run length and prints
 * the paper's analytic model (n / (1 + (n-1)*frag)) alongside.
 */

#include <cstdio>
#include <vector>

#include "analytic/models.hh"
#include "array/striping.hh"
#include "bench/bench_util.hh"
#include "fs/file_layout.hh"

using namespace dtsim;

namespace {

double
measuredRun(std::uint64_t file_blocks, double frag)
{
    const std::uint64_t num_files = 20000;
    std::vector<std::uint64_t> sizes(num_files, file_blocks * 4096);

    LayoutParams lp;
    lp.fragmentation = frag;
    lp.seed = 99;
    // A single-disk identity striping isolates pure layout effects.
    const std::uint64_t capacity = 64ULL * 1024 * 1024;  // blocks
    FileSystemImage image(sizes, lp, capacity);
    StripingMap striping(1, capacity, capacity);
    return image.averageSequentialRun(striping);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Figure 1: average sequential read vs fragmentation");

    const std::uint64_t file_blocks[] = {2, 4, 8, 16, 32};
    const std::vector<int> widths{10, 14, 14, 14, 14, 14};

    std::printf("measured (simulated allocator):\n");
    bench::printRow({"frag(%)", "2 blks", "4 blks", "8 blks",
                     "16 blks", "32 blks"},
                    widths);
    for (int frag_pct = 0; frag_pct <= 20; frag_pct += 2) {
        std::vector<std::string> row{std::to_string(frag_pct)};
        for (std::uint64_t n : file_blocks)
            row.push_back(
                bench::fmt(measuredRun(n, frag_pct / 100.0), 2));
        bench::printRow(row, widths);
    }

    std::printf("\nanalytic model n/(1+(n-1)p):\n");
    bench::printRow({"frag(%)", "2 blks", "4 blks", "8 blks",
                     "16 blks", "32 blks"},
                    widths);
    for (int frag_pct = 0; frag_pct <= 20; frag_pct += 2) {
        std::vector<std::string> row{std::to_string(frag_pct)};
        for (std::uint64_t n : file_blocks)
            row.push_back(bench::fmt(
                analytic::averageSequentialRun(n, frag_pct / 100.0),
                2));
        bench::printRow(row, widths);
    }
    return 0;
}
