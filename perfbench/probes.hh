/**
 * @file
 * Layer probes of the traced run: each drives one layer's public
 * functions with the workload's own trace, in trace order, and
 * reports host nanoseconds per operation.
 */

#ifndef DTSIM_PERFBENCH_PROBES_HH
#define DTSIM_PERFBENCH_PROBES_HH

#include <cstdint>

#include "core/system.hh"
#include "workload/trace.hh"

namespace perfbench {

struct ProbeResult
{
    double mapNs = 0.0;      ///< StripingMap::splitInto per record.
    double blockNs = 0.0;    ///< BlockCache lookup/insert per access.
    double segmentNs = 0.0;  ///< SegmentCache lookup/insert per access.
    double serviceNs = 0.0;  ///< DiskMechanism::service per access.
    double schedNs = 0.0;    ///< Scheduler push + pop per access.
};

/**
 * Probe the array, controller-cache, mechanism and scheduler layers
 * of system `sys` with `trace`; the scheduler runs at `streams`
 * outstanding accesses.
 */
ProbeResult probeLayers(const dtsim::Trace& trace,
                        const dtsim::SystemConfig& sys,
                        unsigned streams);

struct ReplanProbe
{
    std::uint64_t replans = 0;
    double replanMs = 0.0;  ///< Mean host ms per replan() call.
};

/**
 * Feed `trace` to an OnlineHdcPolicy over `sys`'s array in trace
 * order, calling replan() every `missesPerReplan` observed misses
 * (the cadence the replay measured), for at most `budgetSeconds`.
 */
ReplanProbe probeReplan(const dtsim::Trace& trace,
                        const dtsim::SystemConfig& sys,
                        std::uint64_t missesPerReplan,
                        double budgetSeconds);

} // namespace perfbench

#endif // DTSIM_PERFBENCH_PROBES_HH
