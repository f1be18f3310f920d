/**
 * @file
 * The online HDC host policy: drop the oracle.
 *
 * The paper's +24% HDC gain is computed offline — per-disk top-k miss
 * blocks derived from perfect trace knowledge and pinned once at t=0
 * (hdc_planner.hh). This policy earns the region at runtime instead:
 *
 *  - Observe: every host buffer-cache miss (the replayed trace is
 *    exactly that stream) bumps the block in a count-min
 *    sketch with conservative update, and refreshes the block in a
 *    bounded LRU candidate pool that caps re-plan cost.
 *  - Re-plan: every replan interval a host-side front event ranks
 *    the candidates per logical disk by sketch estimate (incumbents
 *    score a small hysteresis margin so equal-value challengers
 *    cannot rotate the region; then lower block, the oracle
 *    planner's order), takes the top hdcCapacityBlocks() of
 *    each disk, and ships the difference against the current pin set
 *    as unpin-then-pin commands through DiskArray's unified pin
 *    router. Every command takes the same latency and same-tick
 *    events fire in FIFO order, so the unpins land first and
 *    controller occupancy never overshoots.
 *  - Re-plan cost: one sequential pass over the pool, no hashing
 *    for most candidates. Each pool slot caches its block's owning
 *    disk, pinned flag, estimate, and the sketch counter that
 *    produced that estimate (read when the block enters the pool).
 *    Counters only grow between agings, so the estimate is re-read
 *    only if that counter's bit is set in the changed-counter bitmap
 *    (marked by every increment, cleared each epoch), or after an
 *    aging. Each candidate's rank key (estimate + 2 if pinned, then
 *    pinned first, then lower block) is packed once; a per-disk
 *    histogram of keys drops the candidates that cannot make the top
 *    k, and std::nth_element selects among the rest. The order is
 *    total, so the chosen set is exactly what a full sort would
 *    pick; only the unpin/pin deltas touch the per-disk pin tables.
 *  - Phase change: the epoch's churn (1 - overlap between the new
 *    and previous hot sets) above hdc.churn_threshold schedules the
 *    next re-plan at a quarter of the base period, so the region
 *    turns over quickly after a working-set shift.
 *  - Age: every sketch counter halves once per ~32 region-fills of
 *    observed misses — volume-based exponential decay that tracks
 *    workload shifts without flattening the slow (day-cycle scale)
 *    recurrences that make a block worth pinning.
 *
 * All state is host-side and fed in canonical host order, so runs
 * are deterministic.
 */

#ifndef DTSIM_HDC_ONLINE_POLICY_HH
#define DTSIM_HDC_ONLINE_POLICY_HH

#include <cstdint>
#include <vector>

#include "array/disk_array.hh"
#include "hdc/hdc_spec.hh"
#include "sim/flat_table.hh"
#include "sim/slab_list.hh"

namespace dtsim {

/** Counters exported by the online policy (sim.hdc.online.*). */
struct OnlineHdcCounters
{
    std::uint64_t misses = 0;       ///< Miss observations folded in.
    std::uint64_t replans = 0;      ///< Re-plan epochs run.
    std::uint64_t fastReplans = 0;  ///< Epochs flagged phase changes.
    std::uint64_t pins = 0;         ///< pin_blk commands issued.
    std::uint64_t unpins = 0;       ///< unpin_blk commands issued.
};

/** Host-side driver of the online HDC policy. */
class OnlineHdcPolicy
{
  public:
    /**
     * @param array Target array (its controllers need an HDC budget).
     * @param spec The hdc.* knobs (policy must be Online).
     */
    OnlineHdcPolicy(DiskArray& array, const HdcSpec& spec);

    /**
     * Observe a completed host access (call once per trace record;
     * replayed records are buffer-cache misses by construction).
     */
    void onAccess(ArrayBlock start, std::uint64_t count);

    /** Observe a single-block miss (onAccess calls it per block). */
    void observeMiss(ArrayBlock block);

    /**
     * Run one re-plan epoch: rank candidates, diff against the
     * current pin set, issue unpin/pin deltas, detect phase changes,
     * age the sketch. Call from host context (a front event).
     */
    void replan();

    /**
     * Delay until the next re-plan: the base interval, or a quarter
     * of it right after a phase-change epoch.
     */
    Tick nextIntervalTicks() const;

    const OnlineHdcCounters& counters() const { return counters_; }

    /** Blocks the policy currently holds pinned (all disks). */
    std::uint64_t pinnedNow() const { return pinnedNow_; }

    /** True if `block` is in the current pin set (for tests). */
    bool
    isPinned(ArrayBlock block) const
    {
        return pinnedPerDisk_[diskOf(block)].contains(block);
    }

    /** Unpin commands of the last re-plan, in the order sent. */
    const std::vector<ArrayBlock>& lastUnpins() const { return toUnpin_; }

    /** Pin commands of the last re-plan, in the order sent. */
    const std::vector<ArrayBlock>& lastPins() const { return toPin_; }

  private:
    /** One candidate-pool slot. */
    struct Candidate
    {
        ArrayBlock block = 0;
        std::uint32_t est = 0;      ///< Sketch estimate at the last read.
        std::uint32_t minCell = 0;  ///< Sketch counter that gave `est`.
        std::uint32_t disk = 0;     ///< Owning logical disk.
        bool live = false;          ///< Slot holds a candidate.
        bool pinned = false;        ///< Block is in its disk's pin set.
    };

    /** A candidate's packed rank key and its pool slot. */
    struct Ranked
    {
        std::uint64_t key;  ///< (est + 2 * pinned) << 1 | pinned.
        ArrayBlock block;
        std::uint32_t slot;
    };

    /** Rank keys at or above this share the top histogram bucket. */
    static constexpr std::uint64_t kKeyBuckets = 64;

    /** Logical disk holding `block`. */
    unsigned
    diskOf(ArrayBlock block) const
    {
        return array_.striping().toPhysical(block).disk;
    }

    /** Fill cells_ with `block`'s sketch counter index in each row. */
    void hashCells(ArrayBlock block);

    /** Conservative-update increment of `block` in the sketch. */
    void sketchAdd(ArrayBlock block);

    /**
     * Set `c`'s estimate and minimum counter from cells_, which must
     * hold `c.block`'s counter indices.
     */
    void readEstimate(Candidate& c) const;

    /**
     * Refresh `block` in the bounded LRU candidate pool; a new
     * candidate reads its estimate from cells_, so call it right
     * after sketchAdd(block).
     */
    void touchCandidate(ArrayBlock block);

    /** Halve every sketch counter (exponential epoch decay). */
    void ageSketch();

    DiskArray& array_;
    HdcSpec spec_;

    /** Per-disk HDC region capacity (uniform controllers). */
    std::uint64_t capacityBlocks_;

    /** Count-min sketch, rows_ x cols_ row-major. */
    std::vector<std::uint32_t> sketch_;
    unsigned rows_;
    std::uint64_t cols_;

    /** Scratch: one block's counter index per sketch row. */
    std::vector<std::uint32_t> cells_;

    /** One bit per sketch counter incremented since the last epoch. */
    std::vector<std::uint64_t> changed_;

    /** The sketch was aged: every cached estimate is stale. */
    bool rereadAll_ = false;

    Slab<Candidate> pool_;             ///< candidateBlocks slots.
    SlabList lru_;                     ///< Front = most recent miss.
    FlatTable<std::uint32_t> slotOf_;  ///< Block -> pool slot.

    /**
     * Current pin set of each logical disk, mapping each block to the
     * last epoch that kept it.
     */
    std::vector<FlatTable<std::uint64_t>> pinnedPerDisk_;
    std::uint64_t pinnedNow_ = 0;

    /** Re-plan scratch, kept to reuse its storage. */
    std::vector<std::vector<Ranked>> ranked_;
    std::vector<std::uint32_t> keyHist_;  ///< disks x kKeyBuckets.
    std::vector<ArrayBlock> toUnpin_;
    std::vector<ArrayBlock> toPin_;

    /** The previous epoch flagged a phase change. */
    bool fastMode_ = false;

    /** Miss count at the last sketch aging (volume-based decay). */
    std::uint64_t lastAgeMisses_ = 0;

    OnlineHdcCounters counters_;
};

} // namespace dtsim

#endif // DTSIM_HDC_ONLINE_POLICY_HH
