/**
 * @file
 * Tests of the sampled-tracing pipeline and live stat streaming:
 * binary record pack/unpack, the JSONL export, trace accounting,
 * sampling determinism, sample=0 purity, and streamed stat frames.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "experiment_replay.hh"
#include "stats_text.hh"
#include "stats/trace.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

SystemConfig
testConfig(SystemKind kind = SystemKind::Segm)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.disks = 4;
    cfg.streams = 16;
    cfg.workers = 8;
    cfg.stripeUnitBytes = 128 * kKiB;
    return cfg;
}

Trace
testTrace(std::uint64_t requests = 300, double writes = 0.1)
{
    SyntheticParams sp;
    sp.numFiles = 20000;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = requests;
    sp.zipfAlpha = 0.4;
    sp.writeProb = writes;
    const SystemConfig cfg = testConfig();
    return makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks())
        .trace;
}

/**
 * Drop the "#conf" header lines under `prefixes`: a run records its
 * trace path, sampling and stream knobs in the self-describing header
 * (by design), but everything else must match a run without them.
 */
std::string
dropConf(const std::string& text,
         std::initializer_list<const char*> prefixes)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        bool drop = false;
        for (const char* p : prefixes)
            drop = drop || line.rfind(std::string("#conf ") + p, 0) == 0;
        if (!drop)
            out << line << "\n";
    }
    return out.str();
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Compare every RunResult field that observability must not perturb. */
void
expectSameResults(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.ioTime, b.ioTime);
    EXPECT_EQ(a.flushTime, b.flushTime);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.agg.reads, b.agg.reads);
    EXPECT_EQ(a.agg.writes, b.agg.writes);
    EXPECT_EQ(a.agg.cacheHitRequests, b.agg.cacheHitRequests);
    EXPECT_EQ(a.agg.mediaAccesses, b.agg.mediaAccesses);
    EXPECT_EQ(a.agg.seekTime, b.agg.seekTime);
    EXPECT_EQ(a.agg.queueTime, b.agg.queueTime);
    EXPECT_EQ(a.agg.busTime, b.agg.busTime);
    EXPECT_EQ(a.agg.latencySum, b.agg.latencySum);
    EXPECT_DOUBLE_EQ(a.meanLatencyMs, b.meanLatencyMs);
}

TEST(SampledTrace, PackUnpackRoundTripAndSaturation)
{
    RequestTraceEvent ev;
    ev.completed = 123456789012345ull;
    ev.disk = 11;
    ev.lba = (1ull << 40) + 17;
    ev.blocks = 96;
    ev.isWrite = true;
    ev.outcome = TraceOutcome::Hdc;
    ev.queue = 98765432109ull;
    ev.seek = 4000000;
    ev.rotation = 5000000;
    ev.transfer = 6000000;
    ev.bus = 7000000;
    ev.latency = 123456789ull;
    ev.faults = 3;
    ev.retries = 2;
    ev.degraded = true;

    const RequestTraceEvent back =
        unpackTraceRecord(packTraceRecord(ev));
    EXPECT_EQ(back.completed, ev.completed);
    EXPECT_EQ(back.disk, ev.disk);
    EXPECT_EQ(back.lba, ev.lba);
    EXPECT_EQ(back.blocks, ev.blocks);
    EXPECT_EQ(back.isWrite, ev.isWrite);
    EXPECT_EQ(back.outcome, ev.outcome);
    EXPECT_EQ(back.queue, ev.queue);
    EXPECT_EQ(back.seek, ev.seek);
    EXPECT_EQ(back.rotation, ev.rotation);
    EXPECT_EQ(back.transfer, ev.transfer);
    EXPECT_EQ(back.bus, ev.bus);
    EXPECT_EQ(back.latency, ev.latency);
    EXPECT_EQ(back.faults, ev.faults);
    EXPECT_EQ(back.retries, ev.retries);
    EXPECT_EQ(back.degraded, ev.degraded);

    // Narrow component fields saturate instead of wrapping.
    RequestTraceEvent wide;
    wide.seek = Tick(1) << 40;
    wide.faults = 1u << 20;
    const BinaryTraceRecord rec = packTraceRecord(wide);
    EXPECT_EQ(rec.seek, 0xffffffffu);
    EXPECT_EQ(rec.faults, 0xffffu);
}

/** Value of `key=` on the dump's "# trace:" line (0 when absent). */
std::uint64_t
traceLineField(const std::string& dump, const std::string& key)
{
    const std::size_t line = dump.find("# trace: ");
    if (line == std::string::npos)
        return 0;
    const std::size_t pos = dump.find(" " + key + "=", line);
    return pos == std::string::npos
        ? 0
        : std::stoull(dump.substr(pos + key.size() + 2));
}

/** Value of the `sim.requests` stat in a dump. */
std::uint64_t
dumpRequests(const std::string& dump)
{
    const std::size_t pos = dump.find("\nsim.requests ");
    EXPECT_NE(pos, std::string::npos);
    return std::stoull(dump.substr(pos + std::strlen("\nsim.requests ")));
}

TEST(SampledTrace, AccountingReconcilesAtEverySampleRate)
{
    // Every completed disk-level request is either written or sampled
    // out, and every written record reaches the file: the "# trace:"
    // line of the dump adds up to the disks' reads + writes exactly.
    // No request of this workload spans two disks, so that is also
    // sim.requests.
    const Trace trace = testTrace(600);
    const SystemConfig cfg = testConfig();
    const std::string path = "/tmp/dtsim_trace_accounting.bin";
    for (const double sample : {1.0, 0.3, 0.0}) {
        SCOPED_TRACE(sample);
        std::ostringstream stats;
        RunOptions opts;
        opts.stats = StatsSink::stream(stats);
        opts.tracePath = path;
        opts.trace.sample = sample;
        const RunResult r =
            test::replayTrace(cfg, trace, nullptr, nullptr, opts);

        const std::string dump = stats.str();
        const std::uint64_t records = traceLineField(dump, "records");
        const std::uint64_t sampled_out =
            traceLineField(dump, "sampled_out");
        EXPECT_EQ(records, r.traceRecords);
        EXPECT_EQ(sampled_out, r.traceSampledOut);
        EXPECT_EQ(records + sampled_out, r.agg.reads + r.agg.writes);
        EXPECT_EQ(records + sampled_out, dumpRequests(dump));
        EXPECT_EQ(dumpRequests(dump), r.requests);
        if (sample == 1.0) {
            EXPECT_EQ(sampled_out, 0u);
        } else if (sample == 0.0) {
            EXPECT_EQ(records, 0u);
        } else {
            EXPECT_GT(records, 0u);
            EXPECT_GT(sampled_out, 0u);
        }

        std::vector<RequestTraceEvent> events;
        ASSERT_TRUE(readTraceFile(path, events));
        EXPECT_EQ(events.size(), records);
    }
    std::remove(path.c_str());
}

TEST(SampledTrace, BinaryAndJsonlAgreeAndRoundTrip)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    RunOptions opts;
    opts.tracePath = "/tmp/dtsim_trace_fmt.bin";
    const RunResult r =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile(opts.tracePath, events));
    ASSERT_EQ(events.size(), r.traceRecords);
    EXPECT_GT(events.size(), 0u);

    // The JSONL export of each binary record parses back to the same
    // event, and re-exports to the same bytes.
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::string line =
            traceRecordToJsonl(packTraceRecord(events[i]));
        ASSERT_EQ(line.back(), '\n');
        RequestTraceEvent back;
        ASSERT_TRUE(parseTraceLine(line, back)) << line;
        EXPECT_EQ(traceRecordToJsonl(packTraceRecord(back)), line)
            << "record " << i;
        EXPECT_EQ(back.completed, events[i].completed);
        EXPECT_EQ(back.lba, events[i].lba);
        EXPECT_EQ(back.latency, events[i].latency);
        EXPECT_EQ(back.outcome, events[i].outcome);
    }

    std::remove(opts.tracePath.c_str());
}

TEST(SampledTrace, FileIsPreambleMarkerThenFixedRecords)
{
    // The on-disk layout: the '#' preamble, the marker line, then
    // exactly one 64-byte record per written request. A trace with no
    // records still carries the marker.
    const std::string path = "/tmp/dtsim_trace_layout.bin";
    const std::string preamble = "# layout test\n#conf x = 1\n";
    const std::string marker = std::string(kBinaryTraceMarker) + "\n";
    for (const std::uint64_t n : {0u, 3u}) {
        RequestTracer tracer;
        tracer.open(path, {}, preamble);
        for (std::uint64_t i = 0; i < n; ++i) {
            ASSERT_TRUE(tracer.shouldRecord());
            RequestTraceEvent ev;
            ev.completed = 1000 + i;
            ev.lba = 64 * i;
            tracer.record(ev);
        }
        tracer.close();
        EXPECT_FALSE(tracer.enabled());
        EXPECT_EQ(tracer.records(), n);

        const std::string bytes = slurp(path);
        ASSERT_EQ(bytes.size(), preamble.size() + marker.size() +
                                    n * sizeof(BinaryTraceRecord));
        EXPECT_EQ(bytes.substr(0, preamble.size()), preamble);
        EXPECT_EQ(bytes.substr(preamble.size(), marker.size()), marker);
        for (std::uint64_t i = 0; i < n; ++i) {
            BinaryTraceRecord rec;
            std::memcpy(&rec,
                        bytes.data() + preamble.size() + marker.size() +
                            i * sizeof(rec),
                        sizeof(rec));
            EXPECT_EQ(rec.completed, 1000 + i);
            EXPECT_EQ(rec.lba, 64 * i);
        }
    }
    std::remove(path.c_str());
}

TEST(SampledTraceDeathTest, FailedWriteIsFatalAndNamesThePath)
{
    // A full device must not truncate the trace silently.
    EXPECT_EXIT(
        {
            RequestTracer tracer;
            tracer.open("/dev/full");
            RequestTraceEvent ev;
            for (int i = 0; i < 10; ++i)
                tracer.record(ev);
            tracer.close();
            std::exit(0);
        },
        ::testing::ExitedWithCode(1),
        "error writing trace file /dev/full");
}

TEST(StatsSinkDeathTest, FailedDumpWriteIsFatalAndNamesThePath)
{
    EXPECT_EXIT(
        {
            StatsSink::Writer w = StatsSink::file("/dev/full").open("t");
            w.os() << "sim.requests 1\n";
            w.finish();
            std::exit(0);
        },
        ::testing::ExitedWithCode(1),
        "error writing stats file '/dev/full'");
}

TEST(SampledTrace, SamplingIsDeterministicPerSeed)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    RunOptions opts;
    opts.tracePath = "/tmp/dtsim_trace_sample_a.bin";
    opts.trace.sample = 0.5;
    opts.trace.seed = 7;
    const RunResult ra =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);
    opts.tracePath = "/tmp/dtsim_trace_sample_b.bin";
    const RunResult rbb =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    // Same seed: the sampled set is reproducible, the whole file
    // byte-identical but for the header's run.trace path.
    EXPECT_EQ(ra.traceRecords, rbb.traceRecords);
    EXPECT_EQ(ra.traceSampledOut, rbb.traceSampledOut);
    EXPECT_EQ(dropConf(slurp("/tmp/dtsim_trace_sample_a.bin"),
                       {"run.trace "}),
              dropConf(slurp("/tmp/dtsim_trace_sample_b.bin"),
                       {"run.trace "}));

    // Every completion candidate was either recorded or sampled out.
    EXPECT_EQ(ra.traceRecords + ra.traceSampledOut, ra.requests);
    EXPECT_GT(ra.traceRecords, 0u);
    EXPECT_GT(ra.traceSampledOut, 0u);

    // A different seed draws a different set.
    opts.tracePath = "/tmp/dtsim_trace_sample_c.bin";
    opts.trace.seed = 8;
    test::replayTrace(cfg, trace, nullptr, nullptr, opts);
    EXPECT_NE(slurp("/tmp/dtsim_trace_sample_a.bin"),
              slurp("/tmp/dtsim_trace_sample_c.bin"));

    // Sampling must not perturb the simulation itself.
    expectSameResults(ra, rbb);
    std::remove("/tmp/dtsim_trace_sample_a.bin");
    std::remove("/tmp/dtsim_trace_sample_b.bin");
    std::remove("/tmp/dtsim_trace_sample_c.bin");
}

TEST(SampledTrace, SampleZeroIsPure)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    std::ostringstream plain_stats;
    RunOptions plain;
    plain.stats = StatsSink::stream(plain_stats);
    const RunResult rp =
        test::replayTrace(cfg, trace, nullptr, nullptr, plain);

    std::ostringstream traced_stats;
    RunOptions traced;
    traced.stats = StatsSink::stream(traced_stats);
    traced.tracePath = "/tmp/dtsim_trace_sample0.bin";
    traced.trace.sample = 0.0;
    const RunResult rt =
        test::replayTrace(cfg, trace, nullptr, nullptr, traced);

    // trace.sample=0 arms the tracer but records nothing and leaves
    // results and the stats dump byte-identical to not tracing.
    expectSameResults(rp, rt);
    EXPECT_EQ(rt.traceRecords, 0u);
    EXPECT_EQ(rt.traceSampledOut, rt.requests);
    EXPECT_EQ(dropConf(test::stripRuntime(plain_stats.str()),
                       {"run.trace "}),
              dropConf(test::stripRuntime(traced_stats.str()),
                       {"run.trace ", "trace."}));

    std::vector<RequestTraceEvent> events;
    ASSERT_TRUE(readTraceFile("/tmp/dtsim_trace_sample0.bin", events));
    EXPECT_TRUE(events.empty());
    std::remove("/tmp/dtsim_trace_sample0.bin");
}

TEST(SampledTrace, SampledRecordsAreASubsequenceOfTheFullTrace)
{
    const Trace trace = testTrace(600);
    const SystemConfig cfg = testConfig();

    RunOptions full;
    full.tracePath = "/tmp/dtsim_trace_full.bin";
    full.trace.sample = 1.0;
    full.trace.seed = 5;
    const RunResult rf =
        test::replayTrace(cfg, trace, nullptr, nullptr, full);

    RunOptions sampled = full;
    sampled.tracePath = "/tmp/dtsim_trace_sampled.bin";
    sampled.trace.sample = 0.3;
    const RunResult rs =
        test::replayTrace(cfg, trace, nullptr, nullptr, sampled);

    // Records are drawn in canonical completion order and their
    // contents never depend on the draw, so a sampled trace is the
    // full trace with records left out, in the same order.
    expectSameResults(rf, rs);
    std::vector<RequestTraceEvent> all, some;
    ASSERT_TRUE(readTraceFile(full.tracePath, all));
    ASSERT_TRUE(readTraceFile(sampled.tracePath, some));
    EXPECT_EQ(all.size(), rf.traceRecords);
    EXPECT_EQ(some.size(), rs.traceRecords);
    EXPECT_GT(some.size(), 0u);
    EXPECT_LT(some.size(), all.size());

    std::size_t next = 0;
    for (const RequestTraceEvent& ev : some) {
        const std::string want = traceRecordToJsonl(packTraceRecord(ev));
        while (next < all.size() &&
               traceRecordToJsonl(packTraceRecord(all[next])) != want)
            ++next;
        ASSERT_LT(next, all.size()) << "sampled record not in order";
        ++next;
    }
    std::remove(full.tracePath.c_str());
    std::remove(sampled.tracePath.c_str());
}

/** Parse "==> dtsim stats seq=..." / "==> end seq=..." frames. */
struct FrameScan
{
    std::uint64_t frames = 0;
    std::uint64_t ends = 0;
    bool sawFinal = false;
    bool seqsMonotonic = true;
    bool bodiesNonEmpty = true;
};

FrameScan
scanFrames(const std::string& path)
{
    FrameScan s;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    long expect_seq = 0;
    std::uint64_t body_lines = 0;
    bool in_frame = false;
    while (std::getline(in, line)) {
        if (line.rfind("==> dtsim stats seq=", 0) == 0) {
            const long seq = std::atol(line.c_str() + 20);
            if (seq != expect_seq)
                s.seqsMonotonic = false;
            ++expect_seq;
            ++s.frames;
            if (line.find(" final <==") != std::string::npos)
                s.sawFinal = true;
            in_frame = true;
            body_lines = 0;
        } else if (line.rfind("==> end seq=", 0) == 0) {
            ++s.ends;
            if (body_lines == 0)
                s.bodiesNonEmpty = false;
            in_frame = false;
        } else if (in_frame) {
            ++body_lines;
        }
    }
    return s;
}

TEST(StatsStream, SerialRunEmitsWellFormedFrames)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    const std::string path = "/tmp/dtsim_stream_serial.txt";
    RunOptions opts;
    opts.statsStream.path = path;
    opts.statsStream.intervalTicks = 20 * kMsec;
    const RunResult r =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    const FrameScan s = scanFrames(path);
    EXPECT_EQ(s.frames, r.streamFrames);
    EXPECT_EQ(s.ends, s.frames);
    EXPECT_GE(s.frames, 2u);  // at least one mid-run + the final one
    EXPECT_TRUE(s.sawFinal);
    EXPECT_TRUE(s.seqsMonotonic);
    EXPECT_TRUE(s.bodiesNonEmpty);
    std::remove(path.c_str());
}

TEST(StatsStream, StreamingDoesNotPerturbResults)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    std::ostringstream plain_stats;
    RunOptions plain;
    plain.stats = StatsSink::stream(plain_stats);
    const RunResult rp =
        test::replayTrace(cfg, trace, nullptr, nullptr, plain);

    std::ostringstream streamed_stats;
    RunOptions streamed;
    streamed.stats = StatsSink::stream(streamed_stats);
    streamed.statsStream.path = "/tmp/dtsim_stream_purity.txt";
    streamed.statsStream.intervalTicks = 20 * kMsec;
    const RunResult rs =
        test::replayTrace(cfg, trace, nullptr, nullptr, streamed);

    expectSameResults(rp, rs);
    EXPECT_EQ(test::stripRuntime(plain_stats.str()),
              dropConf(test::stripRuntime(streamed_stats.str()),
                       {"stats."}));
    std::remove("/tmp/dtsim_stream_purity.txt");
}

TEST(StatsStream, StreamingAlongsideSnapshotsDoesNotPerturbDump)
{
    // The stream chain and the snapshot chain both ride front events
    // and count each other as housekeeping; adding the stream must
    // leave the snapshot-carrying dump byte-identical.
    const Trace trace = testTrace(600);
    const SystemConfig cfg = testConfig();

    std::ostringstream plain_stats;
    RunOptions plain;
    plain.stats = StatsSink::stream(plain_stats);
    plain.statsIntervalTicks = 30 * kMsec;
    const RunResult rp =
        test::replayTrace(cfg, trace, nullptr, nullptr, plain);

    const std::string path = "/tmp/dtsim_stream_snapshots.txt";
    std::ostringstream streamed_stats;
    RunOptions streamed = plain;
    streamed.stats = StatsSink::stream(streamed_stats);
    streamed.statsStream.path = path;
    streamed.statsStream.intervalTicks = 20 * kMsec;
    const RunResult rs =
        test::replayTrace(cfg, trace, nullptr, nullptr, streamed);

    expectSameResults(rp, rs);
    const std::string dump = test::stripRuntime(plain_stats.str());
    ASSERT_NE(dump.find("# snapshot @"), std::string::npos);
    EXPECT_EQ(dump, dropConf(test::stripRuntime(streamed_stats.str()),
                             {"stats."}));
    const FrameScan s = scanFrames(path);
    EXPECT_EQ(s.frames, rs.streamFrames);
    EXPECT_EQ(s.ends, s.frames);
    EXPECT_GE(s.frames, 2u);
    EXPECT_TRUE(s.sawFinal);
    EXPECT_TRUE(s.seqsMonotonic);
    EXPECT_TRUE(s.bodiesNonEmpty);
    std::remove(path.c_str());
}

TEST(StatsStream, InheritsSnapshotIntervalWhenUnset)
{
    const Trace trace = testTrace();
    const SystemConfig cfg = testConfig();

    const std::string path = "/tmp/dtsim_stream_inherit.txt";
    std::ostringstream sink;
    RunOptions opts;
    opts.stats = StatsSink::stream(sink);
    opts.statsIntervalTicks = 20 * kMsec;  // snapshot cadence
    opts.statsStream.path = path;             // interval unset: inherit
    const RunResult r =
        test::replayTrace(cfg, trace, nullptr, nullptr, opts);

    const FrameScan s = scanFrames(path);
    EXPECT_EQ(s.frames, r.streamFrames);
    EXPECT_GE(s.frames, 2u);
    EXPECT_TRUE(s.sawFinal);
    std::remove(path.c_str());
}

} // namespace
} // namespace dtsim
