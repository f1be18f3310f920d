/**
 * @file
 * Figure 11: file server I/O time as a function of the striping unit
 * size (Segm / Segm+HDC / FOR / FOR+HDC, 2 MB HDC caches).
 */

#include "bench/bench_util.hh"

int
main()
{
    dtsim::bench::stripingSweep(
        "fig11_file_striping.conf",
        "Figure 11: File server - I/O time vs striping unit");
    return 0;
}
