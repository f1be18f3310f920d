#include "core/sweep_driver.hh"

#include <chrono>
#include <utility>

#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "sim/logging.hh"
#include "workload/server_models.hh"
#include "workload/synthetic.hh"

namespace dtsim {

namespace {

/** The server-model preset for a workload kind at `scale`. */
ServerModelParams
serverPreset(WorkloadKind kind, double scale)
{
    switch (kind) {
      case WorkloadKind::Web: return webServerParams(scale);
      case WorkloadKind::Proxy: return proxyServerParams(scale);
      case WorkloadKind::File: return fileServerParams(scale);
      case WorkloadKind::Synthetic: break;
    }
    panic("serverPreset: not a server workload");
}

std::uint64_t
arrayCapacityBlocks(const SimulationConfig& sim)
{
    // Mirroring halves the addressable capacity: logical blocks live
    // on the striped half, the other half replicates them.
    return logicalDisks(sim.system) * sim.system.disk.totalBlocks();
}

/** Run `build`, adding its host wall time to `ms`. */
template <typename Build>
auto
timed(double& ms, Build build)
{
    const auto begin = std::chrono::steady_clock::now();
    auto out = build();
    ms += std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - begin)
              .count();
    return out;
}

} // namespace

BuiltWorkload
buildWorkload(const SimulationConfig& sim)
{
    BuiltWorkload out;
    const std::uint64_t capacity = arrayCapacityBlocks(sim);
    if (sim.workload == WorkloadKind::Synthetic) {
        SyntheticWorkload w = makeSynthetic(sim.synthetic, capacity);
        out.trace = std::move(w.trace);
        out.image = std::move(w.image);
    } else {
        const ServerModelParams p =
            serverPreset(sim.workload, sim.scale);
        out.modelStreams = p.streams;
        ServerWorkload w = makeServerWorkload(p, capacity);
        out.trace = std::move(w.trace);
        out.image = std::move(w.image);
        out.fsStats = w.bufferCache;
        out.hasFsStats = true;
    }
    return out;
}

void
applyModelStreams(SimulationConfig& sim)
{
    if (sim.workload != WorkloadKind::Synthetic)
        sim.system.streams =
            serverPreset(sim.workload, sim.scale).streams;
}

std::string
SweepCache::workloadKey(const SimulationConfig& sim)
{
    // The workload build depends on the generator parameters and the
    // target capacity; the header renderer gives a canonical, stable
    // serialization of the former.
    return renderConfigHeader(sim, {"workload.", "synthetic."}) +
           "capacity=" + std::to_string(arrayCapacityBlocks(sim));
}

BuiltWorkload&
SweepCache::workload(const SimulationConfig& sim, PreparePhases& phases)
{
    const std::string key = workloadKey(sim);
    auto it = workloads_.find(key);
    if (it == workloads_.end()) {
        auto built = timed(phases.workloadMs, [&] {
            return std::make_unique<BuiltWorkload>(buildWorkload(sim));
        });
        it = workloads_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

const std::vector<LayoutBitmap>&
SweepCache::bitmaps(const SimulationConfig& sim, PreparePhases& phases)
{
    const SystemConfig& sys = sim.system;
    const std::string key =
        workloadKey(sim) +
        "|disks=" + std::to_string(logicalDisks(sys)) +
        "|unit=" + std::to_string(sys.stripeUnitBytes);
    auto it = bitmaps_.find(key);
    if (it == bitmaps_.end()) {
        const BuiltWorkload& w = workload(sim, phases);
        auto built = timed(phases.layoutMs, [&] {
            return std::make_unique<std::vector<LayoutBitmap>>(
                w.image->buildBitmaps(sys.striping()));
        });
        it = bitmaps_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

const std::vector<ArrayBlock>&
SweepCache::pins(const SimulationConfig& sim, PreparePhases& phases)
{
    const SystemConfig& sys = sim.system;
    const std::string key =
        workloadKey(sim) +
        "|disks=" + std::to_string(logicalDisks(sys)) +
        "|unit=" + std::to_string(sys.stripeUnitBytes) + "|hdcblk=" +
        std::to_string(hdcBlocksPerDisk(sys));
    auto it = pins_.find(key);
    if (it == pins_.end()) {
        const BuiltWorkload& w = workload(sim, phases);
        auto built = timed(phases.planMs, [&] {
            return std::make_unique<std::vector<ArrayBlock>>(
                selectPinnedBlocks(w.trace, sys.striping(),
                                   hdcBlocksPerDisk(sys)));
        });
        it = pins_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

std::vector<RunResult>
runSweepPoints(const std::vector<SweepPoint>& points, SweepCache& cache,
               unsigned jobs)
{
    std::vector<Experiment> batch;
    std::vector<std::size_t> batch_point;
    batch.reserve(points.size());

    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& p = points[i];
        if (!p.feasible) {
            warn("sweep point %zu skipped: %s", i,
                 p.whyNot.c_str());
            continue;
        }
        batch_point.push_back(i);
        batch.emplace_back(p.cfg, cache);
    }

    const std::vector<RunResult> ran =
        Experiment::runAll(batch, jobs);

    std::vector<RunResult> results(points.size());
    for (std::size_t j = 0; j < ran.size(); ++j)
        results[batch_point[j]] = ran[j];
    return results;
}

std::vector<RunResult>
runSweepPoints(const std::vector<SweepPoint>& points, unsigned jobs)
{
    SweepCache cache;
    return runSweepPoints(points, cache, jobs);
}

} // namespace dtsim
