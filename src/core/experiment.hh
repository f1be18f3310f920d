/**
 * @file
 * Experiment: the one front door for running a simulation.
 *
 * An Experiment owns the whole setup of a run -- the server model's
 * stream count, validation, the workload, FOR layout bitmaps, the HDC
 * pin plan, RunOptions -- behind a fluent interface and a single
 * run():
 *
 *     RunResult r = Experiment(sim).run();
 *
 *     Experiment e(sys);                     // replay a given trace
 *     e.replay(trace).bitmaps(bitmaps);
 *     RunResult r = e.run();
 *
 * Two input modes:
 *
 *  - **Built** (default): prepare() applies the server model's stream
 *    count, validates the full configuration (fatal on errors), and
 *    takes the workload, the FOR bitmaps and the oracle-policy pin
 *    plan from a SweepCache (core/sweep_driver.hh): its own, or a
 *    sweep's passed to the constructor, so grid points share builds.
 *    The "# runtime:" line reports the builds this run triggered.
 *
 *  - **Replay** (replay() called): the caller supplies the trace, and
 *    for FOR the bitmaps; no workload build and no full config
 *    validation. Under the oracle policy with no pins() given,
 *    prepare() plans pins over the supplied trace.
 *
 * Output destinations come from config().output; statsTo() and
 * options() can pass a borrowed stream instead. Batches of
 * Experiments run concurrently on runAll()'s worker pool, with results
 * bit-identical to calling run() on each in order.
 */

#ifndef DTSIM_CORE_EXPERIMENT_HH
#define DTSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/sim_config.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_driver.hh"

namespace dtsim {

/** One configured, runnable simulation experiment. */
class Experiment
{
  public:
    /** An experiment over the workload and system `sim` describes. */
    explicit Experiment(SimulationConfig sim = SimulationConfig{});

    /**
     * A replay experiment over a bare SystemConfig (bench style):
     * equivalent to wrapping `sys` in a default SimulationConfig; a
     * trace must be supplied with replay() before running.
     */
    explicit Experiment(const SystemConfig& sys);

    /**
     * A built experiment that takes its workload, bitmaps and pin
     * plan from `cache`, which must outlive it (a sweep passes one
     * cache to all its points).
     */
    Experiment(SimulationConfig sim, SweepCache& cache);

    /** Move-only: it may own its cache (the built workload). */
    Experiment(Experiment&&) = default;
    Experiment& operator=(Experiment&&) = default;
    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    /** Set the full typed HDC host-policy spec (hdc.*). */
    Experiment& hdc(const HdcSpec& spec);

    /** @name Inputs. */
    ///@{

    /**
     * Replay `t` instead of building a workload; `t` must outlive the
     * Experiment. Disables workload building and full-config
     * validation (the caller vouches for the config, like direct
     * runTrace() callers always did).
     */
    Experiment& replay(const Trace& t);

    /**
     * Use these FOR layout bitmaps instead of the cache's; must
     * outlive the Experiment. Required for FOR runs in replay mode.
     */
    Experiment& bitmaps(const std::vector<LayoutBitmap>& bm);

    /**
     * Use this HDC warm-start pin plan instead of deriving one from
     * the trace; must outlive the Experiment. Only meaningful under
     * the oracle policy (@deprecated as a policy surface: new code
     * picks a policy with hdc(); an explicit plan remains the way to
     * share one oracle derivation across runs).
     */
    Experiment& pins(const std::vector<ArrayBlock>& p);

    /**
     * Include these workload-generation buffer-cache stats in the
     * stats dump (sim.fs); must outlive the run.
     */
    Experiment& fsStats(const BufferCacheStats& stats);

    ///@}
    /** @name Outputs (default from config().output). */
    ///@{

    /** Send the stats dump/snapshots to `sink` (e.g. a borrowed
     *  stream) instead of config().output's stats file. */
    Experiment& statsTo(StatsSink sink);

    /**
     * Use this pre-rendered effective-config header; when unset,
     * prepare() renders one from config(), whose run.*, trace. and
     * stats. groups it first sets to the outputs the run uses.
     */
    Experiment& header(std::string text);

    /** Replace the run options wholesale (advanced callers). */
    Experiment& options(const RunOptions& opts);

    ///@}

    /** The underlying configuration (mutable until prepare()). */
    SimulationConfig& config() { return cfg_; }
    const SimulationConfig& config() const { return cfg_; }

    /** The effective run options; complete after prepare(). */
    const RunOptions& runOptions() const { return opts_; }

    /**
     * Resolve the experiment: validate and take the workload, bitmaps
     * and pins from the cache (built mode), plan pins over a replayed
     * trace, and fill output options from config().output.
     * Idempotent; run() calls it automatically. fatal()s on an
     * invalid configuration.
     */
    void prepare();

    /** The trace this experiment replays (prepares if needed). */
    const Trace& trace();

    /** Execute the experiment (prepares if needed). */
    RunResult run();

    /**
     * Prepare a batch on the calling thread, then run it on a pool of
     * `threads` worker threads (0 = sweepJobs(), see core/sweep.hh;
     * one thread runs inline). Each experiment owns its own event
     * queue and array and only reads the shared trace/bitmap/pin
     * inputs, so results come back in batch order, bit-identical to
     * running each alone. Give experiments distinct output paths; a
     * stream-backed StatsSink must be safe to write from the worker
     * thread. If a run throws, the first exception in batch order is
     * rethrown here after all workers finish.
     */
    static std::vector<RunResult> runAll(std::vector<Experiment>& batch,
                                         unsigned threads = 0);

  private:
    SimulationConfig cfg_;
    RunOptions opts_;

    /** Built mode's source of inputs: a sweep's cache, or ownCache_,
     *  which prepare() creates when none was given. */
    SweepCache* cache_ = nullptr;
    std::unique_ptr<SweepCache> ownCache_;

    const Trace* trace_ = nullptr;
    const std::vector<LayoutBitmap>* bitmaps_ = nullptr;
    const std::vector<ArrayBlock>* pins_ = nullptr;

    /** Replay mode's oracle plan over the supplied trace. */
    std::vector<ArrayBlock> ownPins_;
    bool prepared_ = false;
};

} // namespace dtsim

#endif // DTSIM_CORE_EXPERIMENT_HH
