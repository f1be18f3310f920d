/** @file Tests for trace records, statistics, and persistence. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workload/trace.hh"

namespace dtsim {
namespace {

Trace
sampleTrace()
{
    Trace t;
    t.push_back({100, 4, false, 0});
    t.push_back({104, 2, false, 0});
    t.push_back({100, 4, true, 1});
    t.push_back({500, 1, false, 2});
    return t;
}

TEST(TraceStats, CountsRecordsAndBlocks)
{
    const TraceStats s = computeStats(sampleTrace());
    EXPECT_EQ(s.records, 4u);
    EXPECT_EQ(s.writeRecords, 1u);
    EXPECT_EQ(s.blocks, 11u);
    EXPECT_EQ(s.writeBlocks, 4u);
    EXPECT_EQ(s.jobs, 3u);
    EXPECT_DOUBLE_EQ(s.writeRecordFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.meanRecordBlocks, 11.0 / 4.0);
}

TEST(TraceStats, DistinctAndMax)
{
    const TraceStats s = computeStats(sampleTrace());
    // Blocks 100..105 and 500: 7 distinct; 100..103 accessed twice.
    EXPECT_EQ(s.distinctBlocks, 7u);
    EXPECT_EQ(s.maxBlockAccesses, 2u);
}

TEST(TraceStats, EmptyTrace)
{
    const TraceStats s = computeStats({});
    EXPECT_EQ(s.records, 0u);
    EXPECT_DOUBLE_EQ(s.meanRecordBlocks, 0.0);
}

TEST(AccessCounts, SortedDescending)
{
    const auto counts = accessCountsSorted(sampleTrace());
    ASSERT_EQ(counts.size(), 7u);
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_LE(counts[i], counts[i - 1]);
    EXPECT_EQ(counts[0], 2u);
}

TEST(AccessCounts, TopTruncation)
{
    const auto counts = accessCountsSorted(sampleTrace(), 3);
    EXPECT_EQ(counts.size(), 3u);
}

/**
 * A fresh file under $TMPDIR for one test, removed when it goes out
 * of scope, so concurrent test runs never share a path.
 */
class TempFile
{
  public:
    TempFile()
    {
        path_ = (std::filesystem::temp_directory_path() /
                 "dtsim_trace.XXXXXX")
                    .string();
        const int fd = mkstemp(path_.data());
        if (fd < 0)
            throw std::runtime_error("mkstemp failed: " + path_);
        close(fd);
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string& path() const { return path_; }

    void write(const char* text) const
    {
        std::FILE* f = std::fopen(path_.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text, f);
        std::fclose(f);
    }

  private:
    std::string path_;
};

/** The array capacity, in blocks, the tests load traces for. */
constexpr std::uint64_t kCapacity = 1 << 20;

/** The message loadTrace() throws for `path`, or "" if it loads. */
std::string
loadError(const std::string& path)
{
    try {
        loadTrace(path, kCapacity);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(TracePersistence, SaveLoadRoundTrip)
{
    const Trace t = sampleTrace();
    const TempFile file;
    saveTrace(t, file.path());
    const Trace loaded = loadTrace(file.path(), kCapacity);
    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(loaded[i].start, t[i].start);
        EXPECT_EQ(loaded[i].count, t[i].count);
        EXPECT_EQ(loaded[i].isWrite, t[i].isWrite);
        EXPECT_EQ(loaded[i].job, t[i].job);
    }
}

TEST(TracePersistence, LoadMissingFileThrows)
{
    EXPECT_THROW(loadTrace("/nonexistent/nope.txt", kCapacity),
                 std::runtime_error);
    EXPECT_EQ(loadError("/nonexistent/nope.txt"),
              "/nonexistent/nope.txt: cannot open trace file");
}

TEST(TracePersistence, LoadMalformedThrows)
{
    const TempFile file;
    file.write("# header\nnot a record\n");
    EXPECT_THROW(loadTrace(file.path(), kCapacity), std::runtime_error);
}

TEST(TracePersistence, LoadErrorNamesFileAndLine)
{
    const TempFile file;
    file.write("# header\n1 2 0 0\n\n4 1 1 3\n5 1 x 0\n");
    const std::string err = loadError(file.path());
    EXPECT_EQ(err.rfind(file.path() + ":5: ", 0), 0u) << err;
}

TEST(TracePersistence, LoadRejectsTrailingJunk)
{
    const TempFile file;
    file.write("1 2 0 0\n1 2 0 0 junk\n");
    EXPECT_EQ(loadError(file.path()).rfind(file.path() + ":2: ", 0), 0u);

    // Trailing blanks, a missing final newline and CRLF still load.
    file.write("1 2 0 0  \n7 1 1 2");
    const Trace t = loadTrace(file.path(), kCapacity);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[1].start, 7u);
    EXPECT_TRUE(t[1].isWrite);
    EXPECT_EQ(t[1].job, 2u);
    file.write("1 2 0 0\r\n");
    EXPECT_EQ(loadTrace(file.path(), kCapacity).size(), 1u);
}

TEST(TracePersistence, LoadRejectsOverlongLine)
{
    const TempFile file;
    const std::string line = "1 2 0 0" + std::string(300, ' ') + "9\n";
    file.write(("# header\n" + line).c_str());
    EXPECT_EQ(loadError(file.path()).rfind(file.path() + ":2: ", 0), 0u);
}

TEST(TracePersistence, LoadRejectsOutOfRangeRecords)
{
    const TempFile file;
    // A zero count, a signed field (%u would read -1 as 4294967295),
    // a start past the array and a write flag other than 0/1 each
    // fail on their own line.
    for (const char* rec : {"5 0 0 0", "5 -1 0 0", "99999999999999 4 0 0",
                            "+5 1 0 0", "5 1 2 0"}) {
        file.write(("# header\n1 2 0 0\n" + std::string(rec) + "\n")
                       .c_str());
        EXPECT_EQ(loadError(file.path()).rfind(file.path() + ":3: ", 0),
                  0u)
            << rec << ": " << loadError(file.path());
    }

    // The last block of the array is in range, one more is not.
    const std::string last = std::to_string(kCapacity - 2);
    file.write((last + " 2 1 0\n").c_str());
    EXPECT_EQ(loadTrace(file.path(), kCapacity).size(), 1u);
    file.write((last + " 3 1 0\n").c_str());
    EXPECT_EQ(loadError(file.path()).rfind(file.path() + ":1: ", 0), 0u);
}

} // namespace
} // namespace dtsim
