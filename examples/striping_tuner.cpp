/**
 * @file
 * Capacity-planning example: find the best striping unit for a given
 * workload mix, the decision Figures 7/9/11 inform. Demonstrates
 * sweeping array parameters with the public API — the candidate
 * Experiments all run concurrently through Experiment::runAll()
 * (thread count from DTSIM_JOBS).
 *
 * Usage: striping_tuner [avg_file_kb] [streams]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/experiment.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

int
main(int argc, char** argv)
{
    const std::uint64_t file_kb =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
    const unsigned streams =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 64;

    SyntheticParams wp;
    wp.fileSizeBytes = file_kb * kKiB;
    wp.numRequests = 8000;
    wp.zipfAlpha = 0.6;

    std::printf("tuning striping unit for %llu KB files, %u streams\n",
                static_cast<unsigned long long>(file_kb), streams);
    std::printf("%-10s %-12s %-12s\n", "unit(KB)", "Segm(s)",
                "FOR(s)");

    // Build every candidate (unit, system) run, then execute the
    // whole sweep in parallel.
    const std::uint64_t units_kb[] = {4, 8, 16, 32, 64, 128, 256};
    const std::size_t n_units =
        sizeof(units_kb) / sizeof(units_kb[0]);

    // The workload is independent of the striping unit, so one trace
    // serves every candidate; only the FOR bitmaps vary per unit.
    SystemConfig proto;
    proto.streams = streams;
    SyntheticWorkload w = makeSynthetic(
        wp, proto.disks * proto.disk.totalBlocks());

    std::vector<std::vector<LayoutBitmap>> bitmaps(n_units);
    std::vector<Experiment> batch;
    for (std::size_t i = 0; i < n_units; ++i) {
        SystemConfig cfg = proto;
        cfg.stripeUnitBytes = units_kb[i] * kKiB;
        bitmaps[i] = w.image->buildBitmaps(cfg.striping());

        cfg.kind = SystemKind::Segm;
        Experiment segm(cfg);
        segm.replay(w.trace);
        batch.push_back(std::move(segm));

        cfg.kind = SystemKind::FOR;
        Experiment forr(cfg);
        forr.replay(w.trace).bitmaps(bitmaps[i]);
        batch.push_back(std::move(forr));
    }

    const std::vector<RunResult> results =
        Experiment::runAll(batch);

    std::uint64_t best_unit = 0;
    double best_time = 1e300;
    for (std::size_t i = 0; i < n_units; ++i) {
        const RunResult& segm = results[i * 2];
        const RunResult& forr = results[i * 2 + 1];

        std::printf("%-10llu %-12.3f %-12.3f\n",
                    static_cast<unsigned long long>(units_kb[i]),
                    toSeconds(segm.ioTime), toSeconds(forr.ioTime));

        if (toSeconds(forr.ioTime) < best_time) {
            best_time = toSeconds(forr.ioTime);
            best_unit = units_kb[i];
        }
    }

    std::printf("\nbest striping unit with FOR: %llu KB (%.3f s)\n",
                static_cast<unsigned long long>(best_unit),
                best_time);
    return 0;
}
