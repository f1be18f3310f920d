#include "core/experiment.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "array/striping.hh"
#include "core/run_impl.hh"
#include "hdc/hdc_planner.hh"
#include "sim/logging.hh"

namespace dtsim {

namespace {

/** Milliseconds of host wall time since `begin`. */
double
msSince(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

} // namespace

Experiment::Experiment(SimulationConfig sim) : cfg_(std::move(sim)) {}

Experiment::Experiment(const SystemConfig& sys)
{
    cfg_.system = sys;
}

Experiment&
Experiment::kind(SystemKind k)
{
    cfg_.system.kind = k;
    return *this;
}

Experiment&
Experiment::hdc(const HdcSpec& spec)
{
    cfg_.system.hdc = spec;
    return *this;
}

Experiment&
Experiment::replay(const Trace& t)
{
    extTrace_ = &t;
    return *this;
}

Experiment&
Experiment::bitmaps(const std::vector<LayoutBitmap>& bm)
{
    extBitmaps_ = &bm;
    return *this;
}

Experiment&
Experiment::pins(const std::vector<ArrayBlock>& p)
{
    extPins_ = &p;
    return *this;
}

Experiment&
Experiment::fsStats(const BufferCacheStats& stats)
{
    opts_.fsStats = &stats;
    return *this;
}

Experiment&
Experiment::statsTo(StatsSink sink)
{
    opts_.stats = std::move(sink);
    return *this;
}

Experiment&
Experiment::traceTo(std::string path)
{
    opts_.tracePath = std::move(path);
    return *this;
}

Experiment&
Experiment::streamTo(std::string path, Tick interval)
{
    opts_.statsStream.path = std::move(path);
    opts_.statsStream.intervalTicks = interval;
    return *this;
}

Experiment&
Experiment::statsEvery(Tick interval)
{
    opts_.statsIntervalTicks = interval;
    return *this;
}

Experiment&
Experiment::header(std::string text)
{
    opts_.configHeader = std::move(text);
    return *this;
}

Experiment&
Experiment::options(const RunOptions& opts)
{
    opts_ = opts;
    return *this;
}

const Trace&
Experiment::theTrace() const
{
    return extTrace_ ? *extTrace_ : workload_.trace;
}

StripingMap
Experiment::striping() const
{
    const SystemConfig& sys = cfg_.system;
    return StripingMap(logicalDisks(sys),
                       sys.stripeUnitBytes / sys.disk.blockSize,
                       sys.disk.totalBlocks());
}

void
Experiment::prepare()
{
    if (prepared_)
        return;
    prepared_ = true;

    if (!extTrace_) {
        applyModelStreams(cfg_);
        const std::vector<std::string> errs = validateConfig(cfg_);
        if (!errs.empty()) {
            std::ostringstream os;
            for (const std::string& e : errs)
                os << "\n  " << e;
            fatal("invalid configuration:%s", os.str().c_str());
        }
        const auto begin = std::chrono::steady_clock::now();
        workload_ = buildWorkload(cfg_);
        opts_.prepared.workloadMs = msSince(begin);
    }

    const SystemConfig& sys = cfg_.system;
    if (!extBitmaps_ && sys.kind == SystemKind::FOR &&
        workload_.image) {
        const auto begin = std::chrono::steady_clock::now();
        ownBitmaps_ = workload_.image->buildBitmaps(striping());
        opts_.prepared.layoutMs = msSince(begin);
    }
    if (!extPins_ && sys.hdc.enabled() &&
        sys.hdc.policy == HdcPolicy::Oracle) {
        const auto begin = std::chrono::steady_clock::now();
        ownPins_ = selectPinnedBlocks(theTrace(), striping(),
                                      hdcBlocksPerDisk(sys));
        opts_.prepared.planMs = msSince(begin);
    }

    // Output destinations the caller did not set fluently come from
    // the configuration's run.* group, like the CLI always honoured.
    if (!opts_.stats.enabled() && !cfg_.output.statsOut.empty())
        opts_.stats = StatsSink::file(cfg_.output.statsOut);
    if (opts_.tracePath.empty())
        opts_.tracePath = cfg_.output.trace;
    if (opts_.trace == TraceConfig{})
        opts_.trace = cfg_.output.traceCfg;
    if (opts_.statsStream == StatsStreamConfig{})
        opts_.statsStream = cfg_.output.stream;
    if (opts_.statsIntervalTicks == 0)
        opts_.statsIntervalTicks = cfg_.output.statsIntervalTicks;

    // The configuration records the outputs the run really uses, so
    // the header rendered from it reloads to this run in both modes.
    OutputConfig& out = cfg_.output;
    out.statsOut = opts_.stats.path();
    out.trace = opts_.tracePath;
    out.traceCfg = opts_.trace;
    out.stream = opts_.statsStream;
    out.statsIntervalTicks = opts_.statsIntervalTicks;
    if (opts_.configHeader.empty() &&
        (opts_.wantsStats() || !opts_.tracePath.empty() ||
         opts_.statsStream.enabled()))
        opts_.configHeader = renderConfigHeader(cfg_);
}

const Trace&
Experiment::trace()
{
    prepare();
    return theTrace();
}

const std::vector<LayoutBitmap>&
Experiment::layoutBitmaps()
{
    prepare();
    if (extBitmaps_)
        return *extBitmaps_;
    if (ownBitmaps_.empty() && workload_.image)
        ownBitmaps_ = workload_.image->buildBitmaps(striping());
    return ownBitmaps_;
}

RunResult
Experiment::run()
{
    prepare();
    const std::vector<LayoutBitmap>& bm =
        extBitmaps_ ? *extBitmaps_ : ownBitmaps_;
    const std::vector<ArrayBlock>& pins = extPins_ ? *extPins_ : ownPins_;
    RunOptions opts = opts_;
    // The fs-stats pointer is resolved late so opts_ never holds a
    // pointer into this Experiment (which would dangle on move).
    if (!opts.fsStats && workload_.hasFsStats)
        opts.fsStats = &workload_.fsStats;
    return runTrace(cfg_.system, theTrace(), opts,
                    bm.empty() ? nullptr : &bm,
                    pins.empty() ? nullptr : &pins);
}

std::vector<RunResult>
Experiment::runAll(std::vector<Experiment>& batch, unsigned threads)
{
    // Workload builds and pin plans happen here, on the calling
    // thread; the pool only runs prepared experiments.
    for (Experiment& e : batch)
        e.prepare();

    std::vector<RunResult> results(batch.size());
    if (batch.empty())
        return results;
    if (threads == 0)
        threads = sweepJobs();
    if (threads > batch.size())
        threads = static_cast<unsigned>(batch.size());

    std::vector<std::exception_ptr> errors(batch.size());

    // Workers claim experiments off a shared index; each one only
    // reads its shared inputs and writes its own result slot.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= batch.size())
                return;
            try {
                results[i] = batch[i].run();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }

    for (const std::exception_ptr& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

} // namespace dtsim
