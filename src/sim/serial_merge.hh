/**
 * @file
 * Canonical same-tick order for actions that disk-side events hand
 * back to host-side code (bus reservations, order-sensitive stat
 * samples, rebuild completions).
 *
 * On one EventQueue such actions would naturally run in global event
 * insertion order: an accident of scheduling history across disks.
 * SerialMerge instead defers every emission to the end of its tick
 * and replays the batch in canonical order: lowest merge rank first,
 * FIFO within a disk. The rank of a disk is its index unless the
 * array installs another; mirrored arrays install (logical disk,
 * replica), so replica pairs merge primary-then-mirror regardless of
 * how the replicas are numbered physically. The golden dumps depend
 * on this order tick for tick.
 *
 * The deferral is safe because every modeled delay is positive: no
 * event can be scheduled at the current tick during the current tick,
 * so a flusher event scheduled at `now` is guaranteed to run after
 * every other event of that tick, and emissions themselves only
 * schedule strictly-future work (a bus grant always has a positive
 * transfer time). Deferring an emission past same-tick disk-side work
 * is equally safe: emissions touch only host-owned state (the bus,
 * host distributions), disk-side events only disk-owned state.
 */

#ifndef DTSIM_SIM_SERIAL_MERGE_HH
#define DTSIM_SIM_SERIAL_MERGE_HH

#include <vector>

#include "sim/event_queue.hh"

namespace dtsim {

class SerialMerge
{
  public:
    /** Host-side action emitted by a disk. */
    using HostFn = EventQueue::Callback;

    explicit SerialMerge(EventQueue& q) : q_(q) {}

    SerialMerge(const SerialMerge&) = delete;
    SerialMerge& operator=(const SerialMerge&) = delete;

    /** The queue emissions are merged on. */
    EventQueue& queue() { return q_; }

    /**
     * Install the merge order: ranks[d] is disk d's position in
     * same-tick tie-breaks (lower runs first). Defaults to the
     * identity. Must be set before the run starts.
     */
    void
    setMergeRanks(std::vector<unsigned> ranks)
    {
        mergeRanks_ = std::move(ranks);
    }

    /**
     * Emit a host-side action from disk `d` at the current tick. It
     * runs at the end of the tick, in canonical (rank, FIFO) order.
     */
    void emit(unsigned d, HostFn fn);

  private:
    void flush();

    unsigned
    mergeRank(unsigned d) const
    {
        return d < mergeRanks_.size() ? mergeRanks_[d] : d;
    }

    struct Pending
    {
        unsigned disk;
        HostFn fn;
    };

    EventQueue& q_;

    std::vector<unsigned> mergeRanks_;

    /** Emissions of the current tick, in emission order. */
    std::vector<Pending> pending_;

    /** Reused flush scratch (swap keeps pending_ reentrant). */
    std::vector<Pending> batch_;

    bool flushScheduled_ = false;
};

} // namespace dtsim

#endif // DTSIM_SIM_SERIAL_MERGE_HH
