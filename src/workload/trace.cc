#include "workload/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hh"

namespace dtsim {

TraceStats
computeStats(const Trace& trace)
{
    TraceStats s;
    s.records = trace.size();
    std::unordered_map<ArrayBlock, std::uint64_t> counts;
    std::unordered_set<std::uint32_t> jobs;
    for (const TraceRecord& r : trace) {
        s.blocks += r.count;
        if (r.isWrite) {
            ++s.writeRecords;
            s.writeBlocks += r.count;
        }
        jobs.insert(r.job);
        for (std::uint32_t i = 0; i < r.count; ++i)
            ++counts[r.start + i];
    }
    s.jobs = jobs.size();
    s.distinctBlocks = counts.size();
    for (const auto& [block, n] : counts)
        s.maxBlockAccesses = std::max(s.maxBlockAccesses, n);
    if (s.records > 0) {
        s.writeRecordFraction =
            static_cast<double>(s.writeRecords) /
            static_cast<double>(s.records);
        s.meanRecordBlocks =
            static_cast<double>(s.blocks) /
            static_cast<double>(s.records);
    }
    return s;
}

std::vector<std::uint64_t>
accessCountsSorted(const Trace& trace, std::size_t top)
{
    std::unordered_map<ArrayBlock, std::uint64_t> counts;
    for (const TraceRecord& r : trace)
        for (std::uint32_t i = 0; i < r.count; ++i)
            ++counts[r.start + i];

    std::vector<std::uint64_t> out;
    out.reserve(counts.size());
    for (const auto& [block, n] : counts)
        out.push_back(n);
    std::sort(out.begin(), out.end(), std::greater<>());
    if (top != 0 && out.size() > top)
        out.resize(top);
    return out;
}

void
saveTrace(const Trace& trace, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("saveTrace: cannot open %s", path.c_str());
    std::fprintf(f, "# dtsim-trace v1: start count write job\n");
    for (const TraceRecord& r : trace) {
        std::fprintf(f, "%" PRIu64 " %u %u %u\n", r.start, r.count,
                     r.isWrite ? 1u : 0u, r.job);
    }
    const bool failed = std::ferror(f) != 0;
    const bool close_failed = std::fclose(f) != 0;
    if (failed || close_failed)
        fatal("error writing trace file %s", path.c_str());
}

Trace
loadTrace(const std::string& path, std::uint64_t capacity_blocks)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f)
        throw std::runtime_error(path + ": cannot open trace file");
    Trace trace;
    char line[256];
    for (unsigned lineno = 1; std::fgets(line, sizeof(line), f);
         ++lineno) {
        const auto bad = [&](const std::string& what) {
            std::fclose(f);
            throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                     ": " + what);
        };
        const std::size_t len = std::strlen(line);
        if (len > 0 && line[len - 1] != '\n' && !std::feof(f))
            bad("line too long");
        if (line[0] == '#' || line[0] == '\n')
            continue;
        // %u would read "-1" as 4294967295; fields are plain digits.
        if (std::strpbrk(line, "+-"))
            bad("trace fields take no sign");
        TraceRecord r;
        unsigned w = 0;
        int end = 0;
        if (std::sscanf(line, "%" SCNu64 " %u %u %u %n", &r.start,
                        &r.count, &w, &r.job, &end) != 4 ||
            line[end] != '\0')
            bad("bad trace record (want 'start count write job')");
        if (r.count == 0)
            bad("zero-length trace record");
        if (w > 1)
            bad("write flag must be 0 or 1");
        if (r.start >= capacity_blocks ||
            r.count > capacity_blocks - r.start)
            bad("trace record past the end of the " +
                std::to_string(capacity_blocks) + "-block array");
        r.isWrite = w != 0;
        trace.push_back(r);
    }
    std::fclose(f);
    return trace;
}

} // namespace dtsim
