#include "core/experiment.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "core/run_impl.hh"
#include "hdc/hdc_planner.hh"

namespace dtsim {

Experiment::Experiment(SimulationConfig sim) : cfg_(std::move(sim)) {}

Experiment::Experiment(const SystemConfig& sys)
{
    cfg_.system = sys;
}

Experiment::Experiment(SimulationConfig sim, SweepCache& cache)
    : cfg_(std::move(sim)), cache_(&cache)
{
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
    trace_ = &t;
    return *this;
}

Experiment&
Experiment::bitmaps(const std::vector<LayoutBitmap>& bm)
{
    bitmaps_ = &bm;
    return *this;
}

Experiment&
Experiment::pins(const std::vector<ArrayBlock>& p)
{
    pins_ = &p;
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

void
Experiment::prepare()
{
    if (prepared_)
        return;
    prepared_ = true;

    const SystemConfig& sys = cfg_.system;
    const bool oracle =
        sys.hdc.enabled() && sys.hdc.policy == HdcPolicy::Oracle;
    if (!trace_) {
        applyModelStreams(cfg_);
        requireValidConfig(cfg_);
        if (!cache_) {
            ownCache_ = std::make_unique<SweepCache>();
            cache_ = ownCache_.get();
        }
        PreparePhases& phases = opts_.prepared;
        const BuiltWorkload& w = cache_->workload(cfg_, phases);
        trace_ = &w.trace;
        if (!opts_.fsStats && w.hasFsStats)
            opts_.fsStats = &w.fsStats;
        if (!bitmaps_ && sys.kind == SystemKind::FOR)
            bitmaps_ = &cache_->bitmaps(cfg_, phases);
        if (!pins_ && oracle)
            pins_ = &cache_->pins(cfg_, phases);
    } else if (!pins_ && oracle) {
        const auto begin = std::chrono::steady_clock::now();
        ownPins_ = selectPinnedBlocks(*trace_, sys.striping(),
                                      hdcBlocksPerDisk(sys));
        opts_.prepared.planMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begin)
                .count();
    }

    // Output destinations the caller did not set come from the
    // configuration's run.* group, like the CLI always honoured.
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
    return *trace_;
}

RunResult
Experiment::run()
{
    prepare();
    // ownPins_ is read here, not through pins_, so a moved
    // Experiment never reads its old self.
    const std::vector<ArrayBlock>& pins = pins_ ? *pins_ : ownPins_;
    return runTrace(cfg_.system, *trace_, opts_,
                    bitmaps_ && !bitmaps_->empty() ? bitmaps_ : nullptr,
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
