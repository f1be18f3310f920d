/**
 * @file
 * Sweep helpers: the thread count of the parallel sweep pool and the
 * aggregation of a sweep's results. The pool itself is
 * Experiment::runAll() (core/experiment.hh): every paper figure is a
 * batch of runs that differ only in their configuration, each owning
 * its own EventQueue and DiskArray, so they run concurrently with
 * results bit-identical to executing them one by one.
 */

#ifndef DTSIM_CORE_SWEEP_HH
#define DTSIM_CORE_SWEEP_HH

#include <vector>

#include "core/runner.hh"

namespace dtsim {

/**
 * The sweep thread count: DTSIM_JOBS when set to a positive integer,
 * otherwise std::thread::hardware_concurrency() (minimum 1).
 */
unsigned sweepJobs();

/** Sum the read-ahead accuracy counters of a sweep's results. */
RaCounters aggregateSweepRa(const std::vector<RunResult>& results);

} // namespace dtsim

#endif // DTSIM_CORE_SWEEP_HH
