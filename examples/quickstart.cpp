/**
 * @file
 * Quickstart: simulate a small server workload on a conventional
 * disk array and on one using File-Oriented Read-ahead (FOR), and
 * compare total I/O time.
 *
 * Walks through the full public API surface:
 *   1. describe a workload (files + accesses),
 *   2. build the on-disk layout and its FOR bitmaps,
 *   3. configure a system variant,
 *   4. replay and read the results.
 */

#include <cstdio>

#include "core/experiment.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

int
main()
{
    // 1. A workload: 10000 accesses to complete 16 KB files chosen
    //    by a Zipf distribution -- the paper's Section 6.2 setup.
    SyntheticParams wp;
    wp.numFiles = 50000;
    wp.fileSizeBytes = 16 * kKiB;
    wp.numRequests = 10000;
    wp.zipfAlpha = 0.4;

    // 2. The system: 8 IBM Ultrastar 36Z15 drives behind one
    //    Ultra160 bus, 128 KB striping unit, 128 server streams,
    //    and the conventional controller (Segm).
    SystemConfig cfg;
    cfg.kind = SystemKind::Segm;
    cfg.disks = 8;
    cfg.stripeUnitBytes = 128 * kKiB;
    cfg.streams = 128;

    // Build the files on the array and the per-disk FOR bitmaps.
    SyntheticWorkload w =
        makeSynthetic(wp, cfg.disks * cfg.disk.totalBlocks());
    std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(cfg.striping());

    // 3./4. Run the conventional controller and FOR as Experiments
    //       over the shared trace, then compare.
    SystemConfig for_cfg = cfg;
    for_cfg.kind = SystemKind::FOR;
    const RunResult segm = Experiment(cfg).replay(w.trace).run();
    const RunResult forr =
        Experiment(for_cfg).replay(w.trace).bitmaps(bitmaps).run();

    std::printf("conventional (Segm): %8.3f s  (%.1f MB/s, "
                "hit rate %.1f%%)\n",
                toSeconds(segm.ioTime), segm.throughputMBps,
                segm.cacheHitRate * 100.0);
    std::printf("FOR:                 %8.3f s  (%.1f MB/s, "
                "hit rate %.1f%%)\n",
                toSeconds(forr.ioTime), forr.throughputMBps,
                forr.cacheHitRate * 100.0);
    std::printf("FOR improves disk throughput by %.1f%%\n",
                (1.0 - static_cast<double>(forr.ioTime) /
                           static_cast<double>(segm.ioTime)) *
                    100.0);
    return 0;
}
