/**
 * @file
 * The benchmark's units of work: one cold run of each workload,
 * driven through the simulator's public API, with host-time phase
 * spans recorded around the calls into each layer.
 */

#ifndef DTSIM_PERFBENCH_UNITS_HH
#define DTSIM_PERFBENCH_UNITS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/sim_config.hh"
#include "core/runner.hh"
#include "core/sweep_driver.hh"

namespace perfbench {

/** Seconds on the host's monotonic clock. */
inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span log of the traced run: one span per call into a
 * layer, with its parent, kept until the benchmark prints its summary.
 * A disabled log records nothing, so untraced runs pay only a branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0;
        double end = 0.0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const char* name);

    /** Close span `id` (no-op for -1). */
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Summed duration of every span called `name`. */
    double total(const std::string& name) const;

    /** Forget every recorded span. */
    void clear() { spans_.clear(); }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const char* name)
        : log_(log), id_(log.begin(name))
    {
    }
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog& log_;
    int id_;
};

/** The benchmark's default workload seed, the repository's 17. */
constexpr std::uint64_t kRepoSeed = 17;

/** One benchmark workload. */
struct WorkloadSpec
{
    std::string name;
    dtsim::WorkloadKind kind;
    double scale;

    /** HDC policy of the headline run (fig07-web sweeps it). */
    dtsim::HdcPolicy policy;
};

/** The workload called `name`, or nullptr. */
const WorkloadSpec* findWorkload(const std::string& name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

/** One replay of a unit of work and its simulated result. */
struct Replay
{
    std::string label;
    dtsim::SystemConfig system;
    dtsim::RunResult result;
};

/** Everything one cold unit of work produced. */
struct UnitResult
{
    double wallS = 0.0;    ///< Whole unit, generation to last replay.
    double setupS = 0.0;   ///< Generation, bitmaps and pin plans.
    double replayS = 0.0;  ///< Host wall time of the replay phase.
    unsigned jobs = 1;     ///< Sweep threads of the replay phase.

    std::vector<Replay> replays;
    std::size_t headline = 0;  ///< Index of the headline replay.

    std::uint64_t traceRecords = 0;
    dtsim::BufferCacheStats fs;

    /** The generated workload, kept only when asked for. */
    std::unique_ptr<dtsim::BuiltWorkload> workload;
    /** Bitmaps of the headline striping (FOR), kept with it. */
    std::vector<dtsim::LayoutBitmap> headlineBitmaps;

    const Replay& head() const { return replays.at(headline); }
};

/** The simulation config of `w` before any system knob is set. */
dtsim::SimulationConfig baseConfig(const WorkloadSpec& w);

/**
 * Generate `w`'s workload from `seed`: the server model
 * buildWorkload() generates, with the model's generator seed offset
 * by seed - 17, so seed 17 gives exactly buildWorkload()'s workload.
 */
dtsim::BuiltWorkload generate(const dtsim::SimulationConfig& sim,
                              std::uint64_t seed);

/** Run one cold unit of work of `w`. */
UnitResult runUnit(const WorkloadSpec& w, std::uint64_t seed,
                   SpanLog& log, bool keepWorkload);

/** The striping map of `sys`'s array. */
dtsim::StripingMap stripingOf(const dtsim::SystemConfig& sys);

/** The headline system of the single-run workloads. */
dtsim::SystemConfig headlineSystem(const WorkloadSpec& w);

/** The fig07 grid as a SweepSpec over `base`. */
dtsim::SweepSpec fig07Spec(const dtsim::SimulationConfig& base);

/** FNV-1a digest of every simulated field of a unit's replays. */
std::uint64_t digest(const UnitResult& u);

/** Output checks of one unit; appends a line per failure. */
std::size_t checkUnit(const WorkloadSpec& w, const UnitResult& u,
                      std::vector<std::string>& why);

} // namespace perfbench

#endif // DTSIM_PERFBENCH_UNITS_HH
