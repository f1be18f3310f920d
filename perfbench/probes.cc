#include "probes.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "array/disk_array.hh"
#include "array/striping.hh"
#include "cache/block_cache.hh"
#include "cache/segment_cache.hh"
#include "controller/scheduler.hh"
#include "disk/geometry.hh"
#include "disk/mechanism.hh"
#include "hdc/online_policy.hh"
#include "sim/event_queue.hh"
#include "units.hh"

using namespace dtsim;

namespace perfbench {

namespace {

/** Probes repeat passes over the trace until this much host time. */
constexpr double kMinProbeSeconds = 0.05;

/** Keep a probe's result alive so the timed work is not elided. */
inline void
keep(std::uint64_t v)
{
    asm volatile("" : : "g"(v) : "memory");
}

struct Access
{
    unsigned disk;
    BlockNum start;
    std::uint64_t count;
    bool isWrite;
};

/** The per-disk accesses `trace` splits into, in trace order. */
std::vector<Access>
splitTrace(const Trace& trace, const StripingMap& map)
{
    std::vector<Access> out;
    std::vector<SubRange> subs;
    for (const TraceRecord& rec : trace) {
        subs.clear();
        map.splitInto(rec.start, rec.count, subs);
        for (const SubRange& s : subs)
            out.push_back({s.disk, s.start, s.count, rec.isWrite});
    }
    return out;
}

/**
 * Host ns per item of `pass`, which processes `items` items; passes
 * repeat until kMinProbeSeconds have elapsed.
 */
template <typename Pass>
double
nsPerItem(std::size_t items, Pass&& pass)
{
    if (items == 0)
        return 0.0;
    std::uint64_t done = 0;
    const double t0 = nowSeconds();
    double t1 = t0;
    do {
        pass();
        done += items;
        t1 = nowSeconds();
    } while (t1 - t0 < kMinProbeSeconds);
    return (t1 - t0) * 1e9 / static_cast<double>(done);
}

/** Demand-fill a controller cache: look up reads, fill misses,
 *  invalidate writes. */
template <typename Cache>
double
probeCache(const std::vector<Access>& acc,
           std::vector<std::unique_ptr<Cache>>& caches)
{
    std::uint64_t sink = 0;
    const double ns = nsPerItem(acc.size(), [&] {
        for (const Access& a : acc) {
            Cache& c = *caches[a.disk];
            if (a.isWrite) {
                c.invalidateRange(a.start, a.count);
                continue;
            }
            const std::uint64_t hit = c.lookupPrefix(a.start, a.count);
            sink += hit;
            if (hit < a.count)
                c.insertRun(a.start + hit, a.count - hit);
        }
    });
    keep(sink);
    return ns;
}

} // namespace

ProbeResult
probeLayers(const Trace& trace, const SystemConfig& sys,
            unsigned streams)
{
    ProbeResult p;
    const StripingMap map = stripingOf(sys);
    const unsigned disks = map.disks();

    std::vector<SubRange> subs;
    std::uint64_t split = 0;
    p.mapNs = nsPerItem(trace.size(), [&] {
        for (const TraceRecord& rec : trace) {
            subs.clear();
            map.splitInto(rec.start, rec.count, subs);
            split += subs.size();
        }
    });
    const std::vector<Access> acc = splitTrace(trace, map);

    // The controller's own read-ahead cache size for this system.
    EventQueue eq;
    DiskArray array(eq, sys.arrayConfig());
    const std::uint64_t cacheBlocks = array.controller(0).raCacheBlocks();
    const std::uint64_t segBlocks = sys.disk.segmentBlocks();

    std::vector<std::unique_ptr<BlockCache>> blocks;
    std::vector<std::unique_ptr<SegmentCache>> segments;
    for (unsigned d = 0; d < disks; ++d) {
        blocks.push_back(std::make_unique<BlockCache>(
            cacheBlocks, sys.blockPolicy));
        segments.push_back(std::make_unique<SegmentCache>(
            std::max<std::uint64_t>(1, cacheBlocks / segBlocks),
            segBlocks, sys.segmentPolicy, sys.seed + d));
    }
    p.blockNs = probeCache(acc, blocks);
    p.segmentNs = probeCache(acc, segments);

    const DiskParams params = sys.disk;
    const DiskGeometry geom(params);
    std::vector<std::unique_ptr<DiskMechanism>> mechs;
    for (unsigned d = 0; d < disks; ++d)
        mechs.push_back(std::make_unique<DiskMechanism>(params, geom));
    std::vector<Tick> now(disks, 0);
    Tick busy = 0;
    p.serviceNs = nsPerItem(acc.size(), [&] {
        for (const Access& a : acc) {
            MediaAccess m;
            m.startSector = geom.blockToSector(a.start);
            m.sectorCount = a.count * geom.sectorsPerBlock();
            m.isWrite = a.isWrite;
            const ServiceTiming t = mechs[a.disk]->service(m, now[a.disk]);
            now[a.disk] += t.total();
            busy += t.total();
        }
    });

    // Scheduler: each disk's queue holds its share of the streams;
    // every access is one push and, once the queue is full, one pop
    // at the arm's current cylinder.
    const std::size_t depth = std::max<std::size_t>(1, streams / disks);
    std::vector<std::unique_ptr<SweepScheduler>> queues;
    for (unsigned d = 0; d < disks; ++d)
        queues.push_back(std::make_unique<SweepScheduler>(
            SweepScheduler::Kind::LOOK));
    std::vector<std::uint32_t> arm(disks, 0);
    std::vector<std::unique_ptr<MediaJob>> pool;
    std::uint64_t seq = 0;
    p.schedNs = nsPerItem(acc.size(), [&] {
        for (const Access& a : acc) {
            std::unique_ptr<MediaJob> job;
            if (pool.empty()) {
                job = std::make_unique<MediaJob>();
            } else {
                job = std::move(pool.back());
                pool.pop_back();
            }
            job->mediaStart = a.start;
            job->mediaCount = a.count;
            job->cylinder = geom.blockToCylinder(a.start);
            job->seq = ++seq;
            SweepScheduler& q = *queues[a.disk];
            q.push(std::move(job));
            if (q.size() > depth) {
                std::unique_ptr<MediaJob> next = q.pop(arm[a.disk]);
                arm[a.disk] = next->cylinder;
                pool.push_back(std::move(next));
            }
        }
    });
    keep(split);
    keep(busy);
    return p;
}

ReplanProbe
probeReplan(const Trace& trace, const SystemConfig& sys,
            std::uint64_t missesPerReplan, double budgetSeconds)
{
    ReplanProbe out;
    EventQueue eq;
    DiskArray array(eq, sys.arrayConfig());
    OnlineHdcPolicy policy(array, sys.hdc);

    const std::uint64_t cadence = std::max<std::uint64_t>(1, missesPerReplan);
    std::uint64_t nextReplan = cadence;
    double inReplan = 0.0;
    const double start = nowSeconds();
    for (const TraceRecord& rec : trace) {
        policy.onAccess(rec.start, rec.count);
        if (policy.counters().misses < nextReplan)
            continue;
        nextReplan += cadence;
        const double t0 = nowSeconds();
        policy.replan();
        const double t1 = nowSeconds();
        inReplan += t1 - t0;
        ++out.replans;
        if (t1 - start > budgetSeconds)
            break;
    }
    out.replanMs = out.replans
        ? inReplan * 1e3 / static_cast<double>(out.replans)
        : 0.0;
    return out;
}

} // namespace perfbench
