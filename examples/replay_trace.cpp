/**
 * @file
 * Trace persistence round trip: generate a workload, save its disk
 * trace to a file, reload it, and replay it on two systems. This is
 * the workflow for comparing controller designs on a fixed captured
 * workload (e.g. a trace converted from a real kernel log).
 *
 * Usage: replay_trace [trace-path]
 */

#include <cstdio>

#include "core/experiment.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

int
main(int argc, char** argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "/tmp/dtsim_example_trace.txt";

    SystemConfig cfg;
    cfg.kind = SystemKind::Segm;
    cfg.streams = 64;

    // 1. Generate and save.
    SyntheticParams wp;
    wp.fileSizeBytes = 16 * kKiB;
    wp.numRequests = 5000;
    wp.writeProb = 0.1;
    const std::uint64_t capacity = cfg.disks * cfg.disk.totalBlocks();
    SyntheticWorkload w = makeSynthetic(wp, capacity);
    saveTrace(w.trace, path);
    std::printf("saved %zu records to %s\n", w.trace.size(),
                path.c_str());

    // 2. Reload -- as a downstream consumer with only the file
    //    would.
    const Trace trace = loadTrace(path, capacity);
    const TraceStats ts = computeStats(trace);
    std::printf("reloaded: %llu records, %llu blocks, %.1f%% "
                "writes\n",
                static_cast<unsigned long long>(ts.records),
                static_cast<unsigned long long>(ts.blocks),
                ts.writeRecordFraction * 100.0);

    // 3. Replay on the conventional controller and on FOR. The FOR
    //    bitmaps come from the image; a captured trace would carry a
    //    bitmap dump instead.
    std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(cfg.striping());

    SystemConfig for_cfg = cfg;
    for_cfg.kind = SystemKind::FOR;
    const RunResult segm = Experiment(cfg).replay(trace).run();
    const RunResult forr =
        Experiment(for_cfg).replay(trace).bitmaps(bitmaps).run();

    std::printf("Segm: %.3f s   FOR: %.3f s   (%.1f%% better)\n",
                toSeconds(segm.ioTime), toSeconds(forr.ioTime),
                (1.0 - static_cast<double>(forr.ioTime) /
                           static_cast<double>(segm.ioTime)) *
                    100.0);
    return 0;
}
