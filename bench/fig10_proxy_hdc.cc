/**
 * @file
 * Figure 10: proxy server I/O time and HDC hit rate as a function of
 * the per-disk HDC memory size (64 KB striping unit).
 */

#include "bench/bench_util.hh"

int
main()
{
    dtsim::bench::hdcSweep(
        "fig10_proxy_hdc.conf",
        "Figure 10: Proxy server - I/O time vs HDC cache size");
    return 0;
}
