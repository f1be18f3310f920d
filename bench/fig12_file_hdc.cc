/**
 * @file
 * Figure 12: file server I/O time and HDC hit rate as a function of
 * the per-disk HDC memory size (128 KB striping unit).
 */

#include "bench/bench_util.hh"

int
main()
{
    dtsim::bench::hdcSweep(
        "fig12_file_hdc.conf",
        "Figure 12: File server - I/O time vs HDC cache size");
    return 0;
}
