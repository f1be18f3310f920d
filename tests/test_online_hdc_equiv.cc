/**
 * @file
 * Differential test of the online HDC planner's re-plan.
 *
 * OnlineHdcPolicy ranks its candidate pool from cached estimates over
 * flat containers. RefOnlineHdc below is the re-plan it replaced: a
 * std::list + std::unordered_map LRU pool, std::unordered_set pin
 * sets, and a std::partial_sort whose comparator looks up incumbency
 * and re-hashes the sketch for every candidate every epoch. Both are
 * driven with the same seeded miss streams (dtsim::Rng, so a failure
 * replays exactly); after every epoch the unpin and pin command
 * sequences, the counters, the pin count, and the next re-plan delay
 * must match, and at the end so must every block's pinned state.
 *
 * The scenarios cover the paths the cached re-plan must get right: a
 * collision-saturated sketch, zero HDC capacity, pinned blocks
 * evicted from (and returning to) the pool, sketch aging, the
 * phase-change fast re-plan, and a mirrored array. Each scenario also
 * checks that the reference actually exercised its path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "array/disk_array.hh"
#include "hdc/online_policy.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The node-based online planner, as it was before the rewrite. */
class RefOnlineHdc
{
  public:
    RefOnlineHdc(const StripingMap& striping, std::uint64_t capacity,
                 const HdcSpec& spec)
        : striping_(striping), spec_(spec), capacityBlocks_(capacity),
          rows_(spec.sketchRows), cols_(spec.sketchCols),
          pinnedPerDisk_(striping.disks())
    {
        sketch_.assign(static_cast<std::size_t>(rows_) * cols_, 0);
    }

    void
    observeMiss(ArrayBlock block)
    {
        ++counters.misses;
        sketchAdd(block);
        touchCandidate(block);
    }

    void
    replan()
    {
        ++counters.replans;
        unpins.clear();
        pins.clear();
        if (capacityBlocks_ == 0)
            return;

        const unsigned disks = striping_.disks();
        struct Ranked
        {
            std::uint64_t est;
            ArrayBlock block;
        };
        std::vector<std::vector<Ranked>> ranked(disks);
        for (const ArrayBlock b : candLru_) {
            const std::uint64_t est = estimate(b);
            if (est == 0)
                continue;
            ranked[striping_.toPhysical(b).disk].push_back(
                Ranked{est, b});
        }

        bool hadPins = false;
        std::uint64_t desiredTotal = 0;
        std::uint64_t overlap = 0;
        for (unsigned d = 0; d < disks; ++d) {
            std::vector<Ranked>& r = ranked[d];
            std::unordered_set<ArrayBlock>& cur = pinnedPerDisk_[d];
            const std::size_t k = std::min<std::size_t>(
                r.size(), static_cast<std::size_t>(capacityBlocks_));
            std::partial_sort(
                r.begin(), r.begin() + k, r.end(),
                [&cur](const Ranked& a, const Ranked& b) {
                    const bool ap = cur.count(a.block) != 0;
                    const bool bp = cur.count(b.block) != 0;
                    const std::uint64_t ae = a.est + (ap ? 2 : 0);
                    const std::uint64_t be = b.est + (bp ? 2 : 0);
                    if (ae != be)
                        return ae > be;
                    if (ap != bp)
                        return ap;
                    return a.block < b.block;
                });
            r.resize(k);
            desiredTotal += k;

            std::unordered_set<ArrayBlock> desired;
            for (const Ranked& rk : r)
                desired.insert(rk.block);
            hadPins = hadPins || !cur.empty();
            for (const ArrayBlock b : cur) {
                if (desired.count(b))
                    ++overlap;
                else
                    unpins.push_back(b);
            }
            for (const Ranked& rk : r)
                if (!cur.count(rk.block))
                    pins.push_back(rk.block);
            cur = std::move(desired);
        }
        std::sort(unpins.begin(), unpins.end());
        std::sort(pins.begin(), pins.end());
        counters.unpins += unpins.size();
        counters.pins += pins.size();
        pinnedNow += pins.size();
        pinnedNow -= unpins.size();

        const double churn =
            desiredTotal == 0
                ? 0.0
                : 1.0 - static_cast<double>(overlap) /
                            static_cast<double>(desiredTotal);
        fastMode_ = hadPins && desiredTotal > 0 &&
                    churn > spec_.churnThreshold;
        if (fastMode_)
            ++counters.fastReplans;

        const std::uint64_t age_volume =
            32 * capacityBlocks_ * striping_.disks();
        if (counters.misses - lastAgeMisses_ >= age_volume) {
            for (std::uint32_t& c : sketch_)
                c >>= 1;
            lastAgeMisses_ = counters.misses;
            ++agings;
        }
    }

    Tick
    nextIntervalTicks() const
    {
        const Tick base = spec_.replanIntervalTicks;
        return fastMode_ ? std::max<Tick>(1, base / 4) : base;
    }

    bool
    isPinned(ArrayBlock b) const
    {
        return pinnedPerDisk_[striping_.toPhysical(b).disk].count(b) != 0;
    }

    OnlineHdcCounters counters;
    std::vector<ArrayBlock> unpins;
    std::vector<ArrayBlock> pins;
    std::uint64_t pinnedNow = 0;

    /** Coverage: sketch agings and pinned blocks evicted from the pool. */
    std::uint64_t agings = 0;
    std::uint64_t pinnedEvictions = 0;

  private:
    std::size_t
    slot(unsigned r, ArrayBlock block) const
    {
        const std::uint64_t h =
            mix64(block + 0x9e3779b97f4a7c15ull * (r + 1));
        return static_cast<std::size_t>(r) * cols_ + h % cols_;
    }

    std::uint64_t
    estimate(ArrayBlock block) const
    {
        std::uint32_t est = UINT32_MAX;
        for (unsigned r = 0; r < rows_; ++r)
            est = std::min(est, sketch_[slot(r, block)]);
        return est;
    }

    void
    sketchAdd(ArrayBlock block)
    {
        std::uint32_t est = UINT32_MAX;
        for (unsigned r = 0; r < rows_; ++r)
            est = std::min(est, sketch_[slot(r, block)]);
        if (est == UINT32_MAX)
            return;
        for (unsigned r = 0; r < rows_; ++r) {
            std::uint32_t& c = sketch_[slot(r, block)];
            if (c == est)
                ++c;
        }
    }

    void
    touchCandidate(ArrayBlock block)
    {
        auto it = candMap_.find(block);
        if (it != candMap_.end()) {
            candLru_.splice(candLru_.begin(), candLru_, it->second);
            return;
        }
        if (candMap_.size() >= spec_.candidateBlocks) {
            const ArrayBlock old = candLru_.back();
            if (isPinned(old))
                ++pinnedEvictions;
            candLru_.pop_back();
            candMap_.erase(old);
        }
        candLru_.push_front(block);
        candMap_.emplace(block, candLru_.begin());
    }

    const StripingMap& striping_;
    HdcSpec spec_;
    std::uint64_t capacityBlocks_;
    std::vector<std::uint32_t> sketch_;
    unsigned rows_;
    std::uint64_t cols_;
    std::list<ArrayBlock> candLru_;
    std::unordered_map<ArrayBlock, std::list<ArrayBlock>::iterator>
        candMap_;
    std::vector<std::unordered_set<ArrayBlock>> pinnedPerDisk_;
    bool fastMode_ = false;
    std::uint64_t lastAgeMisses_ = 0;
};

/** Shape of one differential run. */
struct Scenario
{
    unsigned disks = 4;
    bool mirrored = false;
    std::uint64_t hdcBlocks = 8;      ///< Per-controller capacity.
    std::uint64_t blockRange = 2048;  ///< Misses fall in [0, range).
    std::uint64_t hotBlocks = 64;     ///< Size of the moving hot set.
    double hotProb = 0.7;             ///< Share of misses on the hot set.
    double shiftProb = 0.1;           ///< Per-epoch hot-set move chance.
    unsigned epochs = 300;
    std::uint64_t maxMissesPerEpoch = 200;
    HdcSpec spec;
};

HdcSpec
smallSpec()
{
    HdcSpec h;
    h.policy = HdcPolicy::Online;
    h.sketchRows = 4;
    h.sketchCols = 256;
    h.candidateBlocks = 512;
    h.replanIntervalTicks = 1000;
    return h;
}

/** What the reference saw, for the scenarios' coverage checks. */
struct Coverage
{
    OnlineHdcCounters counters;
    std::uint64_t agings = 0;
    std::uint64_t pinnedEvictions = 0;
};

/**
 * Drive the production planner and the reference with the same
 * stream; every epoch's commands and counters must agree. Reports
 * what the reference exercised in `cov`.
 */
void
runScenario(const Scenario& s, std::uint64_t seed, Coverage& cov)
{
    EventQueue eq;
    ArrayConfig cfg;
    cfg.disks = s.disks;
    cfg.mirrored = s.mirrored;
    cfg.stripeUnitBytes = 4 * kKiB;
    cfg.controller.hdcBytes = s.hdcBlocks * 4096;
    DiskArray array(eq, cfg);

    HdcSpec spec = s.spec;
    spec.budgetBytesPerDisk = cfg.controller.hdcBytes;
    OnlineHdcPolicy prod(array, spec);
    auto ref = std::make_unique<RefOnlineHdc>(
        array.striping(), array.controller(0).hdcCapacityBlocks(), spec);

    Rng rng(seed);
    std::uint64_t hotBase = 0;
    for (unsigned e = 0; e < s.epochs; ++e) {
        if (rng.chance(s.shiftProb))
            hotBase = rng.below(s.blockRange - s.hotBlocks);
        const std::uint64_t misses = rng.below(s.maxMissesPerEpoch + 1);
        for (std::uint64_t i = 0; i < misses; ++i) {
            ArrayBlock b;
            if (rng.chance(s.hotProb)) {
                // Skewed within the hot set: low offsets recur most.
                const std::uint64_t r = rng.below(s.hotBlocks);
                b = hotBase + rng.below(r + 1);
            } else {
                b = rng.below(s.blockRange);
            }
            // Some misses arrive as multi-block accesses.
            const std::uint64_t count =
                rng.chance(0.2) ? 1 + rng.below(4) : 1;
            prod.onAccess(b, count);
            for (std::uint64_t j = 0; j < count; ++j)
                ref->observeMiss(b + j);
        }
        prod.replan();
        ref->replan();

        cov = {ref->counters, ref->agings, ref->pinnedEvictions};
        ASSERT_EQ(prod.lastUnpins(), ref->unpins) << "epoch " << e;
        ASSERT_EQ(prod.lastPins(), ref->pins) << "epoch " << e;
        const OnlineHdcCounters& pc = prod.counters();
        ASSERT_EQ(pc.misses, ref->counters.misses) << "epoch " << e;
        ASSERT_EQ(pc.replans, ref->counters.replans) << "epoch " << e;
        ASSERT_EQ(pc.fastReplans, ref->counters.fastReplans)
            << "epoch " << e;
        ASSERT_EQ(pc.pins, ref->counters.pins) << "epoch " << e;
        ASSERT_EQ(pc.unpins, ref->counters.unpins) << "epoch " << e;
        ASSERT_EQ(prod.pinnedNow(), ref->pinnedNow) << "epoch " << e;
        ASSERT_EQ(prod.nextIntervalTicks(), ref->nextIntervalTicks())
            << "epoch " << e;
    }
    for (ArrayBlock b = 0; b < s.blockRange + 4; ++b)
        EXPECT_EQ(prod.isPinned(b), ref->isPinned(b)) << "block " << b;

    // The commands reached the controllers (each replica, if
    // mirrored).
    std::uint64_t onControllers = 0;
    for (unsigned d = 0; d < array.disks(); ++d)
        onControllers += array.controller(d).hdcPinnedBlocks();
    EXPECT_EQ(onControllers, prod.pinnedNow() * (s.mirrored ? 2 : 1));
}

TEST(OnlineHdcEquiv, RandomStreams)
{
    Scenario s;
    s.spec = smallSpec();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        Coverage ref;
        runScenario(s, seed, ref);
        if (HasFatalFailure())
            return;
        EXPECT_GT(ref.counters.pins, 0u);
        EXPECT_GT(ref.counters.unpins, 0u);
    }
}

TEST(OnlineHdcEquiv, SaturatedSketch)
{
    // One or three columns: every block shares its counters with many
    // others, so estimates collapse into huge tie classes and the
    // incumbent margin and block order decide nearly every slot.
    for (const std::uint64_t cols : {1ull, 3ull}) {
        for (const unsigned rows : {1u, 2u}) {
            SCOPED_TRACE(testing::Message() << rows << "x" << cols);
            Scenario s;
            s.spec = smallSpec();
            s.spec.sketchRows = rows;
            s.spec.sketchCols = cols;
            s.epochs = 150;
            Coverage ref;
            runScenario(s, 100 + cols * 10 + rows, ref);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(OnlineHdcEquiv, ZeroCapacity)
{
    Scenario s;
    s.spec = smallSpec();
    s.hdcBlocks = 0;
    s.epochs = 50;
    Coverage ref;
    runScenario(s, 7, ref);
    EXPECT_EQ(ref.counters.replans, 50u);
    EXPECT_EQ(ref.counters.pins, 0u);
}

TEST(OnlineHdcEquiv, PinnedBlocksLeaveThePool)
{
    // A pool barely larger than the pinned region: pinned blocks are
    // evicted by cold misses between re-plans, and some return to the
    // pool before the re-plan that would unpin them.
    Scenario s;
    s.spec = smallSpec();
    s.spec.candidateBlocks = 40;
    s.hotBlocks = 48;
    s.blockRange = 256;
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        SCOPED_TRACE(seed);
        Coverage ref;
        runScenario(s, seed, ref);
        if (HasFatalFailure())
            return;
        EXPECT_GT(ref.pinnedEvictions, 0u);
    }
}

TEST(OnlineHdcEquiv, SketchAging)
{
    // Capacity 2 on 2 disks ages the sketch every 128 misses, so most
    // epochs follow an aging and re-read every estimate.
    Scenario s;
    s.spec = smallSpec();
    s.disks = 2;
    s.hdcBlocks = 2;
    s.maxMissesPerEpoch = 300;
    Coverage ref;
    runScenario(s, 21, ref);
    EXPECT_GT(ref.agings, 50u);
}

TEST(OnlineHdcEquiv, FastReplan)
{
    // Frequent hot-set jumps and a low churn threshold: many epochs
    // flag phase changes and shorten the next interval.
    Scenario s;
    s.spec = smallSpec();
    s.spec.churnThreshold = 0.25;
    s.hdcBlocks = 4;
    s.shiftProb = 0.3;
    s.hotProb = 0.95;
    s.hotBlocks = 16;
    s.maxMissesPerEpoch = 400;
    Coverage ref;
    runScenario(s, 31, ref);
    EXPECT_GT(ref.counters.fastReplans, 10u);
}

TEST(OnlineHdcEquiv, MirroredArray)
{
    // 6 physical disks, 3 logical: the planner ranks per logical
    // disk and the router pins each block on both replicas.
    Scenario s;
    s.spec = smallSpec();
    s.disks = 6;
    s.mirrored = true;
    Coverage ref;
    runScenario(s, 41, ref);
    EXPECT_GT(ref.counters.pins, 0u);
}

} // namespace
} // namespace dtsim
