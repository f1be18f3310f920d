#include "workload/server_models.hh"

#include <algorithm>

#include "fs/buffer_cache.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dtsim {

namespace {

/** Emit a batch of dirty blocks as coalesced write records. */
void
emitWritebacks(std::vector<ArrayBlock>& blocks, std::uint32_t job,
               Trace& trace)
{
    if (blocks.empty())
        return;
    std::sort(blocks.begin(), blocks.end());
    std::size_t i = 0;
    while (i < blocks.size()) {
        std::size_t j = i + 1;
        while (j < blocks.size() && blocks[j] == blocks[j - 1] + 1)
            ++j;
        TraceRecord rec;
        rec.start = blocks[i];
        rec.count = static_cast<std::uint32_t>(j - i);
        rec.isWrite = true;
        rec.job = job;
        trace.push_back(rec);
        i = j;
    }
    blocks.clear();
}

/**
 * Emit a read of file blocks [start, start+count) as disk records,
 * splitting at extent boundaries (they are not logically contiguous
 * on the media).
 */
void
emitFileRead(const FileLayout& f, std::uint64_t start,
             std::uint64_t count, std::uint32_t job, Trace& trace)
{
    std::uint64_t i = start;
    const std::uint64_t end = start + count;
    while (i < end) {
        const ArrayBlock lb = f.blockAt(i);
        const std::uint64_t run = f.contiguousRun(i, end - i);
        TraceRecord rec;
        rec.start = lb;
        rec.count = static_cast<std::uint32_t>(run);
        rec.isWrite = false;
        rec.job = job;
        trace.push_back(rec);
        i += run;
    }
}

/**
 * Requests drawn ahead of the cache loop: enough to hide the cold
 * extent fetches behind other work, few enough to stay in L1.
 */
constexpr std::uint64_t kDrawBatch = 64;

/** Blocks of the next request whose table slots are prefetched. */
constexpr std::uint64_t kPrefetchBlocks = 4;

/** One file-level request, drawn before it runs through the cache. */
struct Request
{
    FileId file = 0;
    const FileLayout* layout = nullptr;
    std::uint64_t start = 0;
    std::uint64_t count = 0;
    bool isWrite = false;
};

/** Start the buffer-cache and prefetcher lookups `q` begins with. */
void
prefetchFirstBlocks(const Request& q, const BufferCache& cache,
                    const Prefetcher& prefetcher)
{
    if (!q.isWrite)
        prefetcher.prefetch(q.file);
    const ArrayBlock lb = q.layout->blockAt(q.start);
    const std::uint64_t n = std::min(q.count, kPrefetchBlocks);
    for (std::uint64_t m = 0; m < n; ++m)
        cache.prefetch(lb + m);
}

} // namespace

ServerWorkload
makeServerWorkload(const ServerModelParams& params,
                   std::uint64_t total_blocks)
{
    ServerWorkload w;
    w.params = params;

    Rng rng(params.seed);

    // File population with log-normal sizes.
    std::vector<std::uint64_t> sizes;
    sizes.reserve(params.numFiles);
    for (std::uint64_t i = 0; i < params.numFiles; ++i) {
        double b = rng.logNormalMean(params.avgFileBytes,
                                     params.fileSizeSigma);
        b = std::clamp(b, static_cast<double>(params.minFileBytes),
                       static_cast<double>(params.maxFileBytes));
        sizes.push_back(static_cast<std::uint64_t>(b));
    }

    LayoutParams lp;
    lp.blockSize = params.blockSize;
    lp.fragmentation = params.fragmentation;
    lp.seed = params.seed ^ 0xf11eULL;
    w.image = std::make_unique<FileSystemImage>(sizes, lp,
                                                total_blocks);

    ZipfSampler zipf(params.numFiles, params.zipfAlpha);
    BufferCache cache(params.bufferCacheBlocks);
    Prefetcher prefetcher(params.prefetch, params.prefetchMaxBlocks);

    // Map popularity ranks to on-disk files: clusters of adjacent
    // ranks stay adjacent on disk (creation-time clustering), while
    // the clusters themselves are shuffled across the disk.
    const std::uint64_t cluster =
        std::max<std::uint64_t>(1, params.placementClusterFiles);
    const std::uint64_t groups =
        (params.numFiles + cluster - 1) / cluster;
    std::vector<std::uint64_t> group_perm(groups);
    for (std::uint64_t g = 0; g < groups; ++g)
        group_perm[g] = g;
    for (std::uint64_t g = groups - 1; g > 0; --g)
        std::swap(group_perm[g], group_perm[rng.below(g + 1)]);
    std::vector<FileId> perm(params.numFiles);
    {
        // Assign each rank-group a contiguous id range; the last
        // (short) group maps to the leftover ids.
        std::vector<std::uint64_t> base(groups);
        std::uint64_t next = 0;
        for (std::uint64_t g = 0; g < groups; ++g) {
            base[group_perm[g]] = next;
            const std::uint64_t size = std::min(
                cluster, params.numFiles - group_perm[g] * cluster);
            next += size;
        }
        for (std::uint64_t r = 0; r < params.numFiles; ++r) {
            const std::uint64_t g = r / cluster;
            perm[r] =
                static_cast<FileId>(base[g] + (r % cluster));
        }
    }

    std::vector<ArrayBlock> writebacks;
    Trace job_records;  // Reused per request (cleared each read).
    std::uint32_t job = 0;

    // Draw: the request stream is a pure function of the RNG and the
    // image. Only this step consumes randomness, in request order, so
    // drawing a batch ahead of running it leaves every draw unchanged.
    const auto draw = [&](std::uint64_t r) {
        std::uint64_t rank = zipf.sample(rng);
        if (params.phaseShiftEvery > 0 &&
            (r / params.phaseShiftEvery) % 2 == 1) {
            // Alternate phase: rotated popularity ranking.
            rank = (rank + params.phaseOffsetFiles) % params.numFiles;
        }
        Request q;
        q.file = perm[rank];
        q.layout = &w.image->file(q.file);
        const std::uint64_t fblocks = q.layout->blocks();

        // Pick the accessed range.
        q.count = fblocks;
        if (params.partialAccess) {
            const double bytes = std::max(
                1.0, rng.exponential(params.avgAccessBytes));
            q.count = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       bytes / params.blockSize + 0.5));
            q.count = std::min(q.count, fblocks);
            q.start = fblocks > q.count
                ? rng.below(fblocks - q.count + 1)
                : 0;
        }
        q.isWrite = rng.chance(params.writeRequestProb);
        // The first touch of a file's extents is a cold miss; start
        // it now, a batch ahead of the lookup.
        __builtin_prefetch(q.layout->extents.data());
        __builtin_prefetch(q.layout->extentEnds.data());
        return q;
    };

    // Serve: push one drawn request through the cache hierarchy.
    // Draws no randomness, so job numbers, the warmup boundary and the
    // sync/day cadence follow the request index alone.
    const auto serve = [&](const Request& q, std::uint64_t r) {
        const bool recording = r >= params.warmupRequests;
        const FileLayout& f = *q.layout;
        const std::uint64_t fblocks = f.blocks();
        const std::uint64_t start = q.start;
        const std::uint64_t count = q.count;
        const std::uint32_t this_job = job++;

        if (q.isWrite) {
            // Dirty the blocks in the buffer cache (write-back),
            // walking physically contiguous pieces to keep the
            // per-block address computation O(1).
            for (std::uint64_t i = start; i < start + count;) {
                const ArrayBlock lb = f.blockAt(i);
                const std::uint64_t seg =
                    f.contiguousRun(i, start + count - i);
                for (std::uint64_t m = 0; m < seg; ++m)
                    cache.write(lb + m, writebacks);
                i += seg;
            }
            if (recording)
                emitWritebacks(writebacks, this_job, w.trace);
            writebacks.clear();
        } else {
            // Read through the cache; a miss triggers a disk read of
            // the missing block plus the OS prefetch. Records of one
            // job are emitted through a coalescing buffer: the
            // paper's logs merge accesses to consecutive blocks
            // issued within 2 ms, which covers a thread's
            // back-to-back prefetch ramp-up reads.
            job_records.clear();
            std::uint64_t i = start;
            // Cursor over the file's physically contiguous pieces so
            // the per-block address is one add instead of an extent
            // lookup.
            ArrayBlock seg_lb = 0;
            std::uint64_t seg_start = 0;
            std::uint64_t seg_end = 0;
            while (i < start + count) {
                if (i >= seg_end) {
                    seg_lb = f.blockAt(i);
                    seg_start = i;
                    seg_end =
                        i + f.contiguousRun(i, start + count - i);
                }
                if (cache.readHit(seg_lb + (i - seg_start))) {
                    ++i;
                    continue;
                }
                const std::uint64_t pf = prefetcher.plan(
                    q.file, i, 1, fblocks);
                const std::uint64_t run =
                    std::min(1 + pf, fblocks - i);
                if (recording)
                    emitFileRead(f, i, run, this_job, job_records);
                for (std::uint64_t k = 0; k < run;) {
                    const ArrayBlock lb = f.blockAt(i + k);
                    const std::uint64_t seg =
                        f.contiguousRun(i + k, run - k);
                    for (std::uint64_t m = 0; m < seg; ++m)
                        cache.install(lb + m, writebacks);
                    k += seg;
                }
                if (recording)
                    emitWritebacks(writebacks, this_job, job_records);
                writebacks.clear();
                i += run;
            }
            // Driver-level coalescing of adjacent same-type records.
            for (const TraceRecord& rec : job_records) {
                if (!w.trace.empty()) {
                    TraceRecord& prev = w.trace.back();
                    if (prev.job == rec.job &&
                        prev.isWrite == rec.isWrite &&
                        prev.start + prev.count == rec.start) {
                        prev.count += rec.count;
                        continue;
                    }
                }
                w.trace.push_back(rec);
            }
        }

        if (params.syncEveryRequests > 0 &&
            (r + 1) % params.syncEveryRequests == 0) {
            std::vector<ArrayBlock> dirty = cache.sync();
            if (recording)
                emitWritebacks(dirty, job, w.trace);
            ++job;
        }

        if (params.dayEveryRequests > 0 &&
            (r + 1) % params.dayEveryRequests == 0) {
            // Nightly batch activity: the working set is evicted;
            // dirty data reaches the disk.
            std::vector<ArrayBlock> dirty = cache.dropAll();
            if (recording)
                emitWritebacks(dirty, job, w.trace);
            ++job;
            prefetcher.reset();
        }
    };

    // Draw a batch, then serve it, starting the table lookups of each
    // request's first blocks while the request before it is served.
    const std::uint64_t total_requests =
        params.warmupRequests + params.numRequests;
    std::vector<Request> batch;
    batch.reserve(kDrawBatch);
    for (std::uint64_t base = 0; base < total_requests;
         base += batch.size()) {
        batch.clear();
        const std::uint64_t n =
            std::min<std::uint64_t>(kDrawBatch, total_requests - base);
        for (std::uint64_t j = 0; j < n; ++j)
            batch.push_back(draw(base + j));
        for (std::uint64_t j = 0; j < n; ++j) {
            if (j + 1 < n)
                prefetchFirstBlocks(batch[j + 1], cache, prefetcher);
            serve(batch[j], base + j);
        }
    }

    // Final sync.
    std::vector<ArrayBlock> dirty = cache.sync();
    emitWritebacks(dirty, job++, w.trace);

    cache.audit();
    w.bufferCache = cache.stats();
    return w;
}

ServerModelParams
webServerParams(double scale)
{
    ServerModelParams p;
    p.name = "web";
    p.numFiles = 70000;
    p.avgFileBytes = 21.5 * 1024;
    p.fileSizeSigma = 1.2;
    p.numRequests =
        static_cast<std::uint64_t>(1700000.0 * scale);
    p.warmupRequests = 150000;
    p.zipfAlpha = 1.0;                  // Origin-server popularity.
    p.writeRequestProb = 0.02;
    p.partialAccess = false;
    p.bufferCacheBlocks = 100000;       // ~400 MB of 512 MB RAM.
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 20000;
    p.dayEveryRequests = 24000;         // ~70 "days" at full scale.
    p.fragmentation = 0.02;
    p.streams = 16;                      // PRESS helper threads.
    p.seed = 0xbeef;
    return p;
}

ServerModelParams
proxyServerParams(double scale)
{
    ServerModelParams p;
    p.name = "proxy";
    p.numFiles = 440000;
    p.avgFileBytes = 8.3 * 1024;
    p.fileSizeSigma = 1.0;
    p.numRequests =
        static_cast<std::uint64_t>(750000.0 * scale);
    p.warmupRequests = 150000;
    p.zipfAlpha = 0.75;                 // Proxy-trace popularity.
    // Proxy misses (43%) fetch the object and write it to disk.
    p.writeRequestProb = 0.43;
    p.partialAccess = false;
    p.bufferCacheBlocks = 100000;
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 10000;
    p.dayEveryRequests = 11000;         // ~70 "days" at full scale.
    p.fragmentation = 0.03;
    p.streams = 128;
    p.seed = 0x9c0;
    return p;
}

ServerModelParams
fileServerParams(double scale)
{
    ServerModelParams p;
    p.name = "file";
    p.numFiles = 30000;
    p.avgFileBytes = 16.0 * 1024 * 1024 * 1024 / 30000.0; // 16 GB.
    p.fileSizeSigma = 1.5;
    p.minFileBytes = 4096;
    p.maxFileBytes = 64 * kMiB;
    p.numRequests =
        static_cast<std::uint64_t>(9500000.0 * scale);
    p.warmupRequests = 250000;
    p.zipfAlpha = 0.55;
    p.writeRequestProb = 0.34;
    p.partialAccess = true;
    p.avgAccessBytes = 3.1 * 1024;
    p.bufferCacheBlocks = 100000;
    p.prefetch = PrefetchMode::Sequential;
    p.syncEveryRequests = 50000;
    p.dayEveryRequests = 200000;        // ~48 "days" at full scale.
    p.fragmentation = 0.05;
    p.streams = 128;
    p.seed = 0xf11e5;
    return p;
}

} // namespace dtsim
