#include "stats/trace.hh"

#include <cctype>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <limits>

#include "sim/logging.hh"

namespace dtsim {

const char kBinaryTraceMarker[] = "#dtsim-binary-trace v1 record=64";

const char*
traceOutcomeName(TraceOutcome o)
{
    switch (o) {
      case TraceOutcome::Media: return "media";
      case TraceOutcome::Cache: return "cache";
      case TraceOutcome::Hdc: return "hdc";
    }
    panic("traceOutcomeName: bad outcome %d", static_cast<int>(o));
}

namespace {

std::uint32_t
sat32(std::uint64_t v)
{
    return v > std::numeric_limits<std::uint32_t>::max()
        ? std::numeric_limits<std::uint32_t>::max()
        : static_cast<std::uint32_t>(v);
}

std::uint16_t
sat16(std::uint64_t v)
{
    return v > std::numeric_limits<std::uint16_t>::max()
        ? std::numeric_limits<std::uint16_t>::max()
        : static_cast<std::uint16_t>(v);
}

/**
 * Format one record into `buf` in the JSONL trace format. Field
 * order, separators, and integer rendering are the stable schema
 * documented in docs/METRICS.md; the export is byte identical to
 * what DTSim wrote before sampled tracing existed.
 */
int
formatJsonl(const BinaryTraceRecord& rec, char* buf, std::size_t size)
{
    return std::snprintf(
        buf, size,
        "{\"t\":%" PRIu64 ",\"disk\":%" PRIu32 ",\"lba\":%" PRIu64
        ",\"n\":%" PRIu32 ",\"w\":%d,\"how\":\"%s\",\"q\":%" PRIu64
        ",\"seek\":%" PRIu64 ",\"rot\":%" PRIu64 ",\"xfer\":%" PRIu64
        ",\"bus\":%" PRIu64 ",\"lat\":%" PRIu64 ",\"faults\":%" PRIu32
        ",\"retries\":%" PRIu32 ",\"degraded\":%d}\n",
        rec.completed, static_cast<std::uint32_t>(rec.disk), rec.lba,
        rec.blocks, (rec.flags & kTraceFlagWrite) ? 1 : 0,
        traceOutcomeName(static_cast<TraceOutcome>(rec.outcome)),
        rec.queue, static_cast<std::uint64_t>(rec.seek),
        static_cast<std::uint64_t>(rec.rotation),
        static_cast<std::uint64_t>(rec.transfer),
        static_cast<std::uint64_t>(rec.bus), rec.latency,
        static_cast<std::uint32_t>(rec.faults),
        static_cast<std::uint32_t>(rec.retries),
        (rec.flags & kTraceFlagDegraded) ? 1 : 0);
}

} // namespace

BinaryTraceRecord
packTraceRecord(const RequestTraceEvent& ev)
{
    BinaryTraceRecord rec{};
    rec.completed = ev.completed;
    rec.lba = ev.lba;
    rec.latency = ev.latency;
    rec.queue = ev.queue;
    rec.seek = sat32(ev.seek);
    rec.rotation = sat32(ev.rotation);
    rec.transfer = sat32(ev.transfer);
    rec.bus = sat32(ev.bus);
    rec.blocks = ev.blocks;
    rec.disk = sat16(ev.disk);
    rec.flags = static_cast<std::uint8_t>(
        (ev.isWrite ? kTraceFlagWrite : 0) |
        (ev.degraded ? kTraceFlagDegraded : 0));
    rec.outcome = static_cast<std::uint8_t>(ev.outcome);
    rec.faults = sat16(ev.faults);
    rec.retries = sat16(ev.retries);
    rec.reserved = 0;
    return rec;
}

RequestTraceEvent
unpackTraceRecord(const BinaryTraceRecord& rec)
{
    RequestTraceEvent ev;
    ev.completed = rec.completed;
    ev.disk = rec.disk;
    ev.lba = rec.lba;
    ev.blocks = rec.blocks;
    ev.isWrite = (rec.flags & kTraceFlagWrite) != 0;
    ev.outcome = static_cast<TraceOutcome>(rec.outcome);
    ev.queue = rec.queue;
    ev.seek = rec.seek;
    ev.rotation = rec.rotation;
    ev.transfer = rec.transfer;
    ev.bus = rec.bus;
    ev.latency = rec.latency;
    ev.faults = rec.faults;
    ev.retries = rec.retries;
    ev.degraded = (rec.flags & kTraceFlagDegraded) != 0;
    return ev;
}

std::string
traceRecordToJsonl(const BinaryTraceRecord& rec)
{
    char buf[320];
    const int n = formatJsonl(rec, buf, sizeof(buf));
    if (n <= 0 || static_cast<std::size_t>(n) >= sizeof(buf))
        panic("trace record formatting overflowed");
    return std::string(buf, static_cast<std::size_t>(n));
}

void
RequestTracer::open(const std::string& path, const TraceConfig& cfg,
                    const std::string& preamble)
{
    if (cfg.sample < 0.0 || cfg.sample > 1.0)
        fatal("trace.sample must be in [0, 1], got %g", cfg.sample);
    if (!preamble.empty() && preamble.front() != '#')
        panic("trace preamble must be '#' comment lines");
    close();
    out_ = std::fopen(path.c_str(), "wb");
    if (!out_)
        fatal("cannot open trace file %s for writing", path.c_str());
    // One large buffer keeps the per-record cost to a 64-byte copy;
    // the kernel sees a write only every 16 K records.
    buf_.resize(std::size_t{1} << 20);
    std::setvbuf(out_, buf_.data(), _IOFBF, buf_.size());
    path_ = path;
    cfg_ = cfg;
    sampleAll_ = cfg.sample >= 1.0;
    sampleNone_ = cfg.sample <= 0.0;
    rng_ = Rng(cfg.seed);
    records_ = 0;
    sampledOut_ = 0;
    std::fputs(preamble.c_str(), out_);
    if (!preamble.empty() && preamble.back() != '\n')
        std::fputc('\n', out_);
    std::fputs(kBinaryTraceMarker, out_);
    std::fputc('\n', out_);
}

void
RequestTracer::close()
{
    if (!out_)
        return;
    const bool failed = std::ferror(out_) != 0;
    const bool close_failed = std::fclose(out_) != 0;
    out_ = nullptr;
    if (failed || close_failed)
        fatal("error writing trace file %s", path_.c_str());
}

void
RequestTracer::writeRecord(const RequestTraceEvent& ev)
{
    const BinaryTraceRecord rec = packTraceRecord(ev);
    std::fwrite(&rec, sizeof(rec), 1, out_);
    ++records_;
}

namespace {

/**
 * Find `"key":` in `line` and parse the unsigned integer after it.
 * Returns false if the key is absent or not followed by digits.
 */
bool
parseU64Field(const std::string& line, const char* key,
              std::uint64_t& value)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    std::size_t i = pos + needle.size();
    if (i >= line.size() || !std::isdigit(static_cast<unsigned char>(line[i])))
        return false;
    std::uint64_t v = 0;
    for (; i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i])); ++i)
        v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    value = v;
    return true;
}

/** Parse the quoted string value of `"key":"..."`. */
bool
parseStringField(const std::string& line, const char* key,
                 std::string& value)
{
    const std::string needle = std::string("\"") + key + "\":\"";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    const std::size_t start = pos + needle.size();
    const std::size_t end = line.find('"', start);
    if (end == std::string::npos)
        return false;
    value = line.substr(start, end - start);
    return true;
}

} // namespace

bool
parseTraceLine(const std::string& line, RequestTraceEvent& ev)
{
    std::uint64_t t, disk, lba, n, w, q, seek, rot, xfer, bus, lat;
    std::string how;
    if (!parseU64Field(line, "t", t) ||
        !parseU64Field(line, "disk", disk) ||
        !parseU64Field(line, "lba", lba) ||
        !parseU64Field(line, "n", n) ||
        !parseU64Field(line, "w", w) ||
        !parseStringField(line, "how", how) ||
        !parseU64Field(line, "q", q) ||
        !parseU64Field(line, "seek", seek) ||
        !parseU64Field(line, "rot", rot) ||
        !parseU64Field(line, "xfer", xfer) ||
        !parseU64Field(line, "bus", bus) ||
        !parseU64Field(line, "lat", lat)) {
        return false;
    }
    if (w > 1)
        return false;
    if (how == "media")
        ev.outcome = TraceOutcome::Media;
    else if (how == "cache")
        ev.outcome = TraceOutcome::Cache;
    else if (how == "hdc")
        ev.outcome = TraceOutcome::Hdc;
    else
        return false;
    ev.completed = t;
    ev.disk = static_cast<std::uint32_t>(disk);
    ev.lba = lba;
    ev.blocks = static_cast<std::uint32_t>(n);
    ev.isWrite = w != 0;
    ev.queue = q;
    ev.seek = seek;
    ev.rotation = rot;
    ev.transfer = xfer;
    ev.bus = bus;
    ev.latency = lat;
    // Fault fields were added later; old traces simply lack them.
    std::uint64_t faults = 0, retries = 0, degraded = 0;
    parseU64Field(line, "faults", faults);
    parseU64Field(line, "retries", retries);
    if (parseU64Field(line, "degraded", degraded) && degraded > 1)
        return false;
    ev.faults = static_cast<std::uint32_t>(faults);
    ev.retries = static_cast<std::uint32_t>(retries);
    ev.degraded = degraded != 0;
    return true;
}

bool
readTraceFile(const std::string& path,
              std::vector<RequestTraceEvent>& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("cannot open trace file %s", path.c_str());
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line == kBinaryTraceMarker) {
            // Everything after the marker line is raw 64-byte
            // records; the stream is positioned right past its '\n'.
            BinaryTraceRecord rec;
            while (in.read(reinterpret_cast<char*>(&rec), sizeof(rec))) {
                if (rec.outcome >
                    static_cast<std::uint8_t>(TraceOutcome::Hdc)) {
                    warn("%s: bad outcome %u in binary record %zu",
                         path.c_str(),
                         static_cast<unsigned>(rec.outcome),
                         out.size());
                    return false;
                }
                out.push_back(unpackTraceRecord(rec));
            }
            if (in.gcount() != 0) {
                warn("%s: truncated binary trace record at the end "
                     "(%zd bytes)", path.c_str(),
                     static_cast<std::ptrdiff_t>(in.gcount()));
                return false;
            }
            return true;
        }
        // '#' lines are the effective-config preamble and comments.
        if (line.empty() || line.front() == '#')
            continue;
        RequestTraceEvent ev;
        if (!parseTraceLine(line, ev)) {
            warn("%s:%zu: unparsable trace record", path.c_str(),
                 lineno);
            return false;
        }
        out.push_back(ev);
    }
    return true;
}

} // namespace dtsim
