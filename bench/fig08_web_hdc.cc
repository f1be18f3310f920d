/**
 * @file
 * Figure 8: Web server I/O time and HDC hit rate as a function of the
 * per-disk HDC memory size (16 KB striping unit).
 */

#include "bench/bench_util.hh"

int
main()
{
    dtsim::bench::hdcSweep(
        "fig08_web_hdc.conf",
        "Figure 8: Web server - I/O time vs HDC cache size");
    return 0;
}
