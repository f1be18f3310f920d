/**
 * @file
 * Configuration-driven experiment driver: the one derivation of a
 * run's inputs (built workload, FOR layout bitmaps, oracle HDC pin
 * plan) and the runner for expanded SweepSpec grids.
 *
 * SweepCache is the only code that builds workloads, bitmaps and pin
 * plans: a built Experiment takes them from its own cache or from a
 * sweep's. runSweepPoints() turns each feasible point into such an
 * Experiment over one shared cache, so a striping sweep builds its
 * server workload once; the CLI's --sweep and --system all modes,
 * every bench that replays a workload, and the shipped sweep .conf
 * files in examples/ all run through it.
 */

#ifndef DTSIM_CORE_SWEEP_DRIVER_HH
#define DTSIM_CORE_SWEEP_DRIVER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/sweep.hh"
#include "fs/buffer_cache.hh"
#include "fs/file_layout.hh"

namespace dtsim {

/** A generated workload: the trace plus its file-system context. */
struct BuiltWorkload
{
    Trace trace;
    std::unique_ptr<FileSystemImage> image;

    /** Buffer-cache stats of generation (server models only). */
    BufferCacheStats fsStats;
    bool hasFsStats = false;

    /** The server model's concurrency (0 for synthetic). */
    unsigned modelStreams = 0;
};

/**
 * Build the workload `sim` asks for: the Section 6.2 synthetic
 * workload or one of the Section 6.3 server models at workload.scale,
 * sized to the configured array capacity.
 */
BuiltWorkload buildWorkload(const SimulationConfig& sim);

/**
 * Server models fix their own concurrency: overwrite system.streams
 * with the model's stream count (no-op for synthetic workloads).
 * Applied before running so the effective-config dump records the
 * concurrency that actually ran.
 */
void applyModelStreams(SimulationConfig& sim);

/**
 * Workload/bitmap/pin-plan cache shared across the runs of a sweep.
 * Keyed on the workload- and layout-relevant parameter groups, so
 * grid points differing only in controller policy share one build.
 * Each accessor adds the host time of a build it runs to `phases`
 * (a cache hit adds nothing), so the run that triggered a build
 * reports its cost. Not thread-safe; builds happen on the calling
 * thread (generation is deterministic, so results never depend on
 * sharing).
 */
class SweepCache
{
  public:
    /** The built workload for `sim` (built on first use). */
    BuiltWorkload& workload(const SimulationConfig& sim,
                            PreparePhases& phases);

    /** Per-disk FOR bitmaps of `sim`'s workload image under its
     *  striping. */
    const std::vector<LayoutBitmap>&
    bitmaps(const SimulationConfig& sim, PreparePhases& phases);

    /** The HDC warm-start pin plan for `sim`. */
    const std::vector<ArrayBlock>& pins(const SimulationConfig& sim,
                                        PreparePhases& phases);

  private:
    std::string workloadKey(const SimulationConfig& sim);

    std::map<std::string, std::unique_ptr<BuiltWorkload>> workloads_;
    std::map<std::string, std::unique_ptr<std::vector<LayoutBitmap>>>
        bitmaps_;
    std::map<std::string, std::unique_ptr<std::vector<ArrayBlock>>>
        pins_;
};

/**
 * Run every feasible point of an expanded sweep through the parallel
 * sweep runner (thread count: `jobs`, 0 = DTSIM_JOBS). Results come
 * back in point order; infeasible points get a default RunResult and
 * a warn(). Each feasible point runs as a built Experiment over
 * `cache`, so its outputs are taken from cfg.output, begin with the
 * point's own effective-config header, and report the builds it
 * triggered on the "# runtime:" line.
 *
 * Results are bit-identical to running each point alone: jobs only
 * share the immutable trace/bitmap/pin inputs.
 */
std::vector<RunResult>
runSweepPoints(const std::vector<SweepPoint>& points, SweepCache& cache,
               unsigned jobs = 0);

/** Convenience overload with a throwaway cache. */
std::vector<RunResult>
runSweepPoints(const std::vector<SweepPoint>& points, unsigned jobs = 0);

} // namespace dtsim

#endif // DTSIM_CORE_SWEEP_DRIVER_HH
