/**
 * @file
 * The typed host-policy specification of the HDC pinned region and
 * the read-ahead feedback loop.
 *
 * HdcSpec replaces the ad-hoc budget/policy/ghost-size field trio
 * that used to live loose on SystemConfig: one struct carries the
 * policy choice (off | oracle | online | victim), the per-disk byte
 * budget, and the knobs of the online planner (re-plan cadence,
 * count-min sketch shape, candidate-pool size, phase-change
 * threshold). It is registered as the `hdc.*` parameter group, the
 * one spelling of these knobs.
 *
 * RaSpec is the matching feedback-directed read-ahead specification
 * (the `ra.*` group): when adaptive, each controller scales its
 * speculative read-ahead depth by the observed RaCounters accuracy.
 */

#ifndef DTSIM_HDC_HDC_SPEC_HH
#define DTSIM_HDC_HDC_SPEC_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace dtsim {

/** Host policy driving the HDC pinned region. */
enum class HdcPolicy
{
    /** HDC disabled regardless of the byte budget. */
    Off,

    /**
     * Pin the most-missed blocks up front from perfect trace
     * knowledge (the paper's evaluation policy).
     */
    Oracle,

    /**
     * Online planner: observe buffer-cache misses during the run
     * (count-min sketch over a bounded candidate pool), periodically
     * re-plan the per-disk top-k pin sets, and ship incremental
     * pin/unpin deltas to the controllers mid-run.
     */
    Online,

    /** Array-wide victim cache for the host buffer cache (the other
     *  use Section 5 proposes). */
    Victim,
};

/** Typed configuration of the HDC host policy (the hdc.* group). */
struct HdcSpec
{
    /** How the host manages the HDC region. */
    HdcPolicy policy = HdcPolicy::Oracle;

    /** HDC pinned-region budget per controller (0 = HDC off). */
    std::uint64_t budgetBytesPerDisk = 0;

    /** Mirrored host-cache size for the Victim policy. */
    std::uint64_t victimGhostBlocks = 100000;

    /** Online: base re-plan period in simulated ticks. */
    Tick replanIntervalTicks = 100 * kMsec;

    /** Online: count-min sketch rows (independent hash functions). */
    unsigned sketchRows = 4;

    /** Online: count-min sketch columns (counters per row). */
    std::uint64_t sketchCols = 65536;

    /** Online: bound on the recency-held candidate block pool. */
    std::uint64_t candidateBlocks = 65536;

    /**
     * Online: epoch-over-epoch hot-set churn (1 - overlap fraction)
     * above which a phase change is declared and the next re-plan is
     * scheduled at a quarter of the base period.
     */
    double churnThreshold = 0.5;

    /** True when a pinned region exists at all. */
    bool
    enabled() const
    {
        return budgetBytesPerDisk > 0 && policy != HdcPolicy::Off;
    }

    /** True when the online planner drives the region. */
    bool
    online() const
    {
        return enabled() && policy == HdcPolicy::Online;
    }

    /**
     * Cap on the state the online planner pre-allocates (1 GiB).
     * validateConfig rejects knobs above it, so an oversized sketch or
     * pool fails as a config error instead of an allocation abort.
     */
    static constexpr std::uint64_t kOnlineStateCapBytes = 1ull << 30;

    /** Largest candidate pool the planner's 32-bit slot indices hold. */
    static constexpr std::uint64_t kMaxCandidateBlocks = 0xfffffffeull;

    /**
     * Bytes of online-planner state these knobs ask for, saturating
     * at UINT64_MAX: 4 bytes and a changed bit per sketch counter, and
     * 96 bytes per candidate (pool slot, index entry, re-plan scratch).
     */
    std::uint64_t
    onlineStateBytes() const
    {
        std::uint64_t cells = 0, pool = 0, total = 0;
        if (__builtin_mul_overflow(std::uint64_t{sketchRows}, sketchCols,
                                   &cells) ||
            cells > UINT64_MAX / 5 ||
            __builtin_mul_overflow(candidateBlocks, std::uint64_t{96},
                                   &pool) ||
            __builtin_add_overflow(4 * cells + cells / 8, pool, &total))
            return UINT64_MAX;
        return total;
    }
};

/** Feedback-directed read-ahead depth control (the ra.* group). */
struct RaSpec
{
    /**
     * Scale the per-controller speculative read-ahead depth by the
     * observed read-ahead accuracy (off = the fixed segment-sized
     * budget the paper models).
     */
    bool adaptive = false;

    /** Lower bound on the adaptive depth, in blocks. */
    std::uint64_t minBlocks = 1;

    /** Upper bound on the adaptive depth (0 = the segment size). */
    std::uint64_t maxBlocks = 0;

    /**
     * Speculative blocks that must resolve (used or wasted) before
     * the depth is re-evaluated.
     */
    std::uint64_t windowBlocks = 256;

    /** Window accuracy at or below which the depth halves. */
    double lowAccuracy = 0.5;

    /** Window accuracy at or above which the depth doubles. */
    double highAccuracy = 0.85;
};

} // namespace dtsim

#endif // DTSIM_HDC_HDC_SPEC_HH
