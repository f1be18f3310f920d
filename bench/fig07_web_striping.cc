/**
 * @file
 * Figure 7: Web server I/O time as a function of the striping unit
 * size (Segm / Segm+HDC / FOR / FOR+HDC, 2 MB HDC caches).
 */

#include "bench/bench_util.hh"

int
main()
{
    dtsim::bench::stripingSweep(
        "fig07_web_striping.conf",
        "Figure 7: Web server - I/O time vs striping unit");
    return 0;
}
