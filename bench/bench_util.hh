/**
 * @file
 * Shared helpers for the figure/table reproduction benches: standard
 * workload scales, aligned table printing, and the grid runner.
 *
 * Every bench that replays a workload is a sweep: it describes its
 * table as SweepSpec grids over registered parameters (the
 * fig07-fig12 grids are the .conf files under examples/sweeps/ that
 * dtsim_cli --sweep runs too) and runs them through runSweepPoints(),
 * so every point is validated by validateConfig(), built by
 * buildWorkload(), shares workloads, bitmaps and pin plans through
 * one SweepCache, and runs on the DTSIM_JOBS pool.
 */

#ifndef DTSIM_BENCH_BENCH_UTIL_HH
#define DTSIM_BENCH_BENCH_UTIL_HH

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "config/parse.hh"
#include "config/sweep_spec.hh"
#include "core/runner.hh"
#include "core/sweep_driver.hh"

namespace dtsim {
namespace bench {

/**
 * Request-count scale for the real-workload models, overridable with
 * the DTSIM_BENCH_SCALE environment variable (checked parse; junk is
 * fatal). The default keeps the full bench suite within minutes;
 * EXPERIMENTS.md records the value used.
 */
double workloadScale();

/** Print a header line like "=== Figure 7: ... ===". */
void printHeader(const std::string& title);

/** Print one aligned row of a results table. */
void printRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/** Format helpers. */
std::string fmt(double v, int precision = 3);
std::string fmtPct(double v, int precision = 1);

/** A sweep axis over typed values, in canonical text form. */
template <typename T>
SweepAxis
axis(std::string key, std::initializer_list<T> values)
{
    SweepAxis a{std::move(key), {}};
    for (const T& v : values)
        a.values.push_back(config::formatValue(v));
    return a;
}

/**
 * The Section 6.2 synthetic setup the synthetic benches start from:
 * 128 streams, 64 workers, a 128 KB striping unit, and the default
 * 10000 requests for 16 KB files.
 */
SweepSpec syntheticSpec();

/** The expanded points of a bench table and their results. */
struct Grid
{
    std::vector<SweepPoint> points;
    std::vector<RunResult> results;

    /** The workloads, bitmaps and pin plans the points shared. */
    SweepCache cache;
};

/**
 * Expand each spec (fatal on a bad axis), concatenate the points in
 * spec order, and run them all through runSweepPoints() with one
 * SweepCache. Tables that are not one cartesian grid pass several
 * specs.
 */
Grid runGrid(const std::vector<SweepSpec>& specs);

/**
 * The Figure 7/9/11 table: the striping-unit grid of
 * examples/sweeps/`conf` (I/O time vs unit size for Segm, Segm+HDC,
 * FOR, FOR+HDC) at workloadScale().
 */
void stripingSweep(const std::string& conf,
                   const std::string& figure_title);

/**
 * The Figure 8/10/12 table: the HDC-size grid of
 * examples/sweeps/`conf` at workloadScale(). FOR points whose HDC +
 * bitmap budget exceeds the controller cache come back infeasible and
 * print "-" (the paper's FOR+HDC curves stop early too).
 */
void hdcSweep(const std::string& conf, const std::string& figure_title);

} // namespace bench
} // namespace dtsim

#endif // DTSIM_BENCH_BENCH_UTIL_HH
