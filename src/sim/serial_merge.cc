#include "sim/serial_merge.hh"

#include <algorithm>

namespace dtsim {

void
SerialMerge::emit(unsigned d, HostFn fn)
{
    // One flusher per tick drains every emission of the tick (nothing
    // can join the current tick after the flusher, see the file
    // comment).
    if (!flushScheduled_) {
        flushScheduled_ = true;
        q_.scheduleAt(q_.now(), [this]() { flush(); });
    }
    pending_.push_back(Pending{d, std::move(fn)});
}

void
SerialMerge::flush()
{
    flushScheduled_ = false;
    batch_.clear();
    batch_.swap(pending_);
    std::stable_sort(batch_.begin(), batch_.end(),
                     [this](const Pending& a, const Pending& b) {
                         return mergeRank(a.disk) < mergeRank(b.disk);
                     });
    for (Pending& p : batch_)
        p.fn();
}

} // namespace dtsim
