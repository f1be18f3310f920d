#include "hdc/online_policy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

namespace {

/** splitmix64: the finalizer makes a fine per-row hash family. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

OnlineHdcPolicy::OnlineHdcPolicy(DiskArray& array, const HdcSpec& spec)
    : array_(array), spec_(spec),
      capacityBlocks_(array.controller(0).hdcCapacityBlocks()),
      rows_(spec.sketchRows), cols_(spec.sketchCols), pool_(0),
      pinnedPerDisk_(array.striping().disks()),
      ranked_(array.striping().disks()),
      keyHist_(array.striping().disks() * kKeyBuckets)
{
    if (rows_ == 0 || cols_ == 0)
        fatal("OnlineHdcPolicy: sketch must have rows and columns");
    if (spec_.candidateBlocks == 0)
        fatal("OnlineHdcPolicy: candidate pool must be > 0 blocks");
    if (spec_.candidateBlocks > HdcSpec::kMaxCandidateBlocks ||
        spec_.onlineStateBytes() > HdcSpec::kOnlineStateCapBytes)
        fatal("OnlineHdcPolicy: sketch and candidate pool exceed the "
              "%llu-byte state cap",
              static_cast<unsigned long long>(
                  HdcSpec::kOnlineStateCapBytes));
    const std::size_t cells = static_cast<std::size_t>(rows_) * cols_;
    sketch_.assign(cells, 0);
    cells_.assign(rows_, 0);
    changed_.assign((cells + 63) / 64, 0);
    pool_ = Slab<Candidate>(
        static_cast<std::uint32_t>(spec_.candidateBlocks));
    slotOf_.reserve(spec_.candidateBlocks);
    for (FlatTable<std::uint64_t>& pins : pinnedPerDisk_)
        pins.reserve(capacityBlocks_);
}

void
OnlineHdcPolicy::hashCells(ArrayBlock block)
{
    for (unsigned r = 0; r < rows_; ++r) {
        // Salt the block with the row index so the rows hash
        // independently.
        const std::uint64_t h =
            mix64(block + 0x9e3779b97f4a7c15ull * (r + 1));
        cells_[r] = static_cast<std::uint32_t>(r * cols_ + h % cols_);
    }
}

void
OnlineHdcPolicy::readEstimate(Candidate& c) const
{
    c.minCell = cells_[0];
    for (unsigned r = 1; r < rows_; ++r)
        if (sketch_[cells_[r]] < sketch_[c.minCell])
            c.minCell = cells_[r];
    c.est = sketch_[c.minCell];
}

void
OnlineHdcPolicy::sketchAdd(ArrayBlock block)
{
    // Conservative update: only raise the minimum counters, which
    // tightens the overestimate without losing the sketch's
    // no-underestimate guarantee.
    hashCells(block);
    std::uint32_t est = UINT32_MAX;
    for (unsigned r = 0; r < rows_; ++r)
        est = std::min(est, sketch_[cells_[r]]);
    if (est == UINT32_MAX)
        return;  // Saturated; stop counting.
    for (unsigned r = 0; r < rows_; ++r) {
        const std::uint32_t cell = cells_[r];
        if (sketch_[cell] == est) {
            ++sketch_[cell];
            changed_[cell >> 6] |= std::uint64_t{1} << (cell & 63);
        }
    }
}

void
OnlineHdcPolicy::touchCandidate(ArrayBlock block)
{
    using Ops = SlabListOps<Candidate>;
    if (const std::uint32_t* n = slotOf_.find(block)) {
        Ops::moveToFront(pool_, lru_, *n);
        return;
    }
    std::uint32_t n;
    if (lru_.size >= spec_.candidateBlocks) {
        // Recycle the least recently missed candidate's slot.
        n = lru_.tail;
        slotOf_.erase(pool_[n].block);
        Ops::unlink(pool_, lru_, n);
    } else {
        n = pool_.allocate();
    }
    Candidate& c = pool_[n];
    c.block = block;
    c.disk = diskOf(block);
    c.live = true;
    readEstimate(c);  // cells_ still holds sketchAdd's hashes.
    // A pinned block can leave the pool and return before the next
    // re-plan unpins it.
    c.pinned = pinnedPerDisk_[c.disk].contains(block);
    Ops::pushFront(pool_, lru_, n);
    slotOf_.insert(block, n);
}

void
OnlineHdcPolicy::observeMiss(ArrayBlock block)
{
    ++counters_.misses;
    sketchAdd(block);
    touchCandidate(block);  // Reads the estimate sketchAdd left.
}

void
OnlineHdcPolicy::onAccess(ArrayBlock start, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        observeMiss(start + i);
}

void
OnlineHdcPolicy::ageSketch()
{
    for (std::uint32_t& c : sketch_)
        c >>= 1;
    rereadAll_ = true;
}

void
OnlineHdcPolicy::replan()
{
    ++counters_.replans;
    toUnpin_.clear();
    toPin_.clear();
    if (capacityBlocks_ == 0)
        return;  // No HDC budget: nothing ever pins.

    const unsigned disks = array_.striping().disks();
    const std::uint64_t epoch = counters_.replans;

    // Rank the candidate pool per owning disk: estimate descending
    // with incumbent hysteresis, then pinned first, then block
    // ascending. A pinned block scores est + 2, so a challenger must
    // clear a margin above it. The host cache flattens the miss
    // stream (every hot block recurs about once per cache cycle),
    // which puts most of the region in one large estimate tie class;
    // without the margin, aging transients (+-1) would rotate
    // equal-value blocks through the region every epoch and fragment
    // request coverage. Block ascending last matches the oracle
    // planner's order, so a converged sketch reproduces the oracle's
    // pin set.
    //
    // Counters only grow between agings, so an estimate can move
    // only if the counter that produced it changed: re-read just
    // those, or everything after an aging.
    for (std::vector<Ranked>& r : ranked_)
        r.clear();
    std::fill(keyHist_.begin(), keyHist_.end(), 0);
    for (std::uint32_t n = 0; n < pool_.capacity(); ++n) {
        Candidate& c = pool_[n];
        if (!c.live)
            continue;
        if (rereadAll_ ||
            ((changed_[c.minCell >> 6] >> (c.minCell & 63)) & 1)) {
            hashCells(c.block);
            readEstimate(c);
        }
        if (c.est == 0)
            continue;
        const std::uint64_t p = c.pinned ? 1 : 0;
        const std::uint64_t key = ((c.est + 2 * p) << 1) | p;
        ++keyHist_[c.disk * kKeyBuckets +
                   std::min(key, kKeyBuckets - 1)];
        ranked_[c.disk].push_back(Ranked{key, c.block, n});
    }
    std::fill(changed_.begin(), changed_.end(), 0);
    rereadAll_ = false;

    bool hadPins = false;
    std::uint64_t desiredTotal = 0;
    std::uint64_t overlap = 0;

    for (unsigned d = 0; d < disks; ++d) {
        std::vector<Ranked>& r = ranked_[d];
        FlatTable<std::uint64_t>& cur = pinnedPerDisk_[d];
        const std::size_t k = std::min<std::size_t>(
            r.size(), static_cast<std::size_t>(capacityBlocks_));
        if (k < r.size()) {
            // The order is total, so the top k are unique. Keys below
            // the largest histogram bucket t with k keys at or above
            // it cannot make the cut; select among the rest.
            const std::uint32_t* hist = &keyHist_[d * kKeyBuckets];
            std::uint64_t t = kKeyBuckets - 1;
            for (std::size_t atOrAbove = hist[t]; atOrAbove < k;)
                atOrAbove += hist[--t];
            const auto end = std::partition(
                r.begin(), r.end(),
                [t](const Ranked& x) { return x.key >= t; });
            std::nth_element(r.begin(), r.begin() + k, end,
                             [](const Ranked& a, const Ranked& b) {
                                 if (a.key != b.key)
                                     return a.key > b.key;
                                 return a.block < b.block;
                             });
        }
        desiredTotal += k;
        hadPins = hadPins || !cur.empty();

        // Stamp the kept incumbents, then unpin what went unstamped.
        const std::size_t firstUnpin = toUnpin_.size();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < k; ++i) {
            Candidate& c = pool_[r[i].slot];
            if (c.pinned) {
                *cur.find(c.block) = epoch;
                ++kept;
            }
        }
        overlap += kept;
        cur.forEach([&](std::uint64_t b, std::uint64_t& stamp) {
            if (stamp != epoch)
                toUnpin_.push_back(b);
        });
        for (std::size_t i = firstUnpin; i < toUnpin_.size(); ++i) {
            const ArrayBlock b = toUnpin_[i];
            cur.erase(b);
            if (const std::uint32_t* n = slotOf_.find(b))
                pool_[*n].pinned = false;
        }
        for (std::size_t i = 0; i < k; ++i) {
            Candidate& c = pool_[r[i].slot];
            if (!c.pinned) {
                c.pinned = true;
                cur.insert(c.block, epoch);
                toPin_.push_back(c.block);
            }
        }
    }

    // Canonical command order: sorted unpins, then sorted pins. All
    // commands share one latency and same-tick events fire FIFO, so
    // each disk applies its unpins before its pins and controller
    // occupancy never exceeds the region capacity.
    std::sort(toUnpin_.begin(), toUnpin_.end());
    std::sort(toPin_.begin(), toPin_.end());
    for (const ArrayBlock b : toUnpin_) {
        array_.unpinLogicalBlock(b);
        ++counters_.unpins;
        --pinnedNow_;
    }
    for (const ArrayBlock b : toPin_) {
        array_.pinLogicalBlock(b);
        ++counters_.pins;
        ++pinnedNow_;
    }

    // Phase change: the new hot set barely overlaps the old one.
    // Meaningless before anything was pinned (the first plans), so
    // gate on hadPins.
    const double churn =
        desiredTotal == 0
            ? 0.0
            : 1.0 - static_cast<double>(overlap) /
                        static_cast<double>(desiredTotal);
    fastMode_ = hadPins && desiredTotal > 0 &&
                churn > spec_.churnThreshold;
    if (fastMode_)
        ++counters_.fastReplans;

    // Age on observation volume, not on the epoch clock: the blocks
    // worth pinning recur on day-cycle scale (host-cache drops), so
    // halving every epoch would flatten their counts to the noise
    // floor before they ever accumulate. Halving once per ~32
    // region-fills of misses keeps the half-life proportional to the
    // workload's own rate at any replan interval, and long enough
    // that a block recurring a few times per half-life stays clear
    // of the sketch's collision noise.
    const std::uint64_t age_volume =
        32 * capacityBlocks_ * array_.striping().disks();
    if (counters_.misses - lastAgeMisses_ >= age_volume) {
        ageSketch();
        lastAgeMisses_ = counters_.misses;
    }
}

Tick
OnlineHdcPolicy::nextIntervalTicks() const
{
    const Tick base = spec_.replanIntervalTicks;
    if (!fastMode_)
        return base;
    return std::max<Tick>(1, base / 4);
}

} // namespace dtsim
