/**
 * @file
 * Checked-parser tests: every malformed value class the registry must
 * reject (trailing junk, overflow, signs on unsigned fields, unknown
 * enum tokens) and the formatValue/parseValue round-trip guarantees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "config/parse.hh"
#include "config/sim_config.hh"

using namespace dtsim;
using namespace dtsim::config;

namespace {

template <typename T>
testing::AssertionResult
rejects(const std::string& text)
{
    T out{};
    std::string err;
    if (parseValue(text, out, err))
        return testing::AssertionFailure()
               << "'" << text << "' parsed to " << formatValue(out);
    if (err.empty())
        return testing::AssertionFailure()
               << "'" << text << "' rejected without a reason";
    return testing::AssertionSuccess() << err;
}

template <typename T>
T
accepts(const std::string& text)
{
    T out{};
    std::string err;
    EXPECT_TRUE(parseValue(text, out, err)) << text << ": " << err;
    return out;
}

TEST(ConfigParse, U64Accepts)
{
    EXPECT_EQ(accepts<std::uint64_t>("0"), 0u);
    EXPECT_EQ(accepts<std::uint64_t>("131072"), 131072u);
    EXPECT_EQ(accepts<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    // Base prefixes are accepted (strtoull base 0).
    EXPECT_EQ(accepts<std::uint64_t>("0x20000"), 131072u);
}

TEST(ConfigParse, U64Rejects)
{
    EXPECT_TRUE(rejects<std::uint64_t>(""));
    EXPECT_TRUE(rejects<std::uint64_t>("abc"));
    EXPECT_TRUE(rejects<std::uint64_t>("12abc"));
    EXPECT_TRUE(rejects<std::uint64_t>("12 34"));
    EXPECT_TRUE(rejects<std::uint64_t>("-1"));
    EXPECT_TRUE(rejects<std::uint64_t>("12.5"));
    // One past uint64 max.
    EXPECT_TRUE(rejects<std::uint64_t>("18446744073709551616"));
    EXPECT_TRUE(rejects<std::uint64_t>(" 12"));
}

TEST(ConfigParse, U32Rejects)
{
    EXPECT_EQ(accepts<unsigned>("4294967295"), 4294967295u);
    // Fits in u64 but not u32: must be a range error, not silent
    // truncation.
    EXPECT_TRUE(rejects<unsigned>("4294967296"));
    EXPECT_TRUE(rejects<unsigned>("-1"));
    EXPECT_TRUE(rejects<unsigned>("8x"));
}

TEST(ConfigParse, DoubleAcceptsAndRejects)
{
    EXPECT_DOUBLE_EQ(accepts<double>("0.05"), 0.05);
    EXPECT_DOUBLE_EQ(accepts<double>("-2.5e-3"), -2.5e-3);
    EXPECT_TRUE(rejects<double>(""));
    EXPECT_TRUE(rejects<double>("0.05x"));
    EXPECT_TRUE(rejects<double>("zero"));
    EXPECT_TRUE(rejects<double>("1e999"));
    EXPECT_TRUE(rejects<double>("nan"));
    EXPECT_TRUE(rejects<double>("inf"));
}

TEST(ConfigParse, BoolTokens)
{
    EXPECT_TRUE(accepts<bool>("true"));
    EXPECT_TRUE(accepts<bool>("1"));
    EXPECT_TRUE(accepts<bool>("on"));
    EXPECT_TRUE(accepts<bool>("yes"));
    EXPECT_FALSE(accepts<bool>("false"));
    EXPECT_FALSE(accepts<bool>("0"));
    EXPECT_FALSE(accepts<bool>("off"));
    EXPECT_FALSE(accepts<bool>("no"));
    EXPECT_TRUE(rejects<bool>("maybe"));
    EXPECT_TRUE(rejects<bool>("TRUE"));
    EXPECT_TRUE(rejects<bool>(""));
}

TEST(ConfigParse, DoubleFormatRoundTrips)
{
    // Shortest round-trip formatting: parse(format(v)) == v exactly,
    // and common values stay human-readable.
    const double values[] = {0.0,  0.05, 0.87, 1.0 / 3.0,
                             21.5, 1e-9, 123456789.123456789};
    for (double v : values) {
        double back = 0.0;
        std::string err;
        ASSERT_TRUE(parseValue(formatValue(v), back, err))
            << formatValue(v);
        EXPECT_EQ(back, v) << formatValue(v);
    }
    EXPECT_EQ(formatValue(0.05), "0.05");
    EXPECT_EQ(formatValue(1.0), "1");
}

TEST(ConfigParse, EnumTableParseAndFormat)
{
    const EnumTable<SystemKind>& t = systemKindTokens();
    SystemKind k = SystemKind::Segm;
    std::string err;
    ASSERT_TRUE(t.parse("for", k, err));
    EXPECT_EQ(k, SystemKind::FOR);
    EXPECT_EQ(t.format(SystemKind::NoRA), "nora");
    EXPECT_FALSE(t.parse("FOR", k, err));
    EXPECT_NE(err.find("segm|block|nora|for"), std::string::npos);
}

TEST(ConfigParse, RegistryUnknownKeyAndBadValue)
{
    SimulationConfig sim;
    ParamRegistry reg;
    bindParams(reg, sim);

    std::string err;
    EXPECT_FALSE(reg.set("system.no_such_param", "1", err));
    EXPECT_NE(err.find("unknown parameter"), std::string::npos);
    EXPECT_NE(err.find("system.no_such_param"), std::string::npos);

    err.clear();
    EXPECT_FALSE(reg.set("system.disks", "eight", err));
    EXPECT_NE(err.find("system.disks"), std::string::npos);

    // A failed set leaves the bound field untouched.
    EXPECT_EQ(sim.system.disks, 8u);

    ASSERT_TRUE(reg.set("system.disks", "4", err)) << err;
    EXPECT_EQ(sim.system.disks, 4u);
    EXPECT_EQ(reg.get("system.disks"), "4");
}

TEST(ConfigParse, RetiredIntraRunJobsKeyIsUnknown)
{
    // One run is one serial event loop: there is no intra-run worker
    // count to set, and the trace is always binary, written on the
    // simulation thread, so it has no encoding or writer-ring knob.
    // The HDC knobs are spelled hdc.* only. Each old key must fail
    // like any unknown one.
    SimulationConfig sim;
    ParamRegistry reg;
    bindParams(reg, sim);

    for (const char* key :
         {"run.jobs_intra", "trace.format", "trace.buffer_records",
          "system.hdc_bytes_per_disk", "system.hdc_policy",
          "system.victim_ghost_blocks"}) {
        EXPECT_FALSE(reg.has(key));
        std::string err;
        EXPECT_FALSE(reg.set(key, "4", err));
        EXPECT_NE(err.find("unknown parameter"), std::string::npos)
            << err;
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }

    // "pinned", the oracle's retired spelling, is not a policy token.
    std::string err;
    EXPECT_FALSE(reg.set("hdc.policy", "pinned", err));
    EXPECT_NE(err.find("hdc.policy"), std::string::npos) << err;
    EXPECT_EQ(sim.system.hdc.policy, HdcPolicy::Oracle);
}

TEST(ConfigParse, RegistryCoversEveryGroup)
{
    SimulationConfig sim;
    ParamRegistry reg;
    bindParams(reg, sim);

    const char* expected[] = {
        "workload.kind",      "workload.scale",
        "system.kind",        "system.stripe_unit_bytes",
        "disk.cache_bytes",   "disk.rpm",
        "synthetic.requests", "run.stats_out",
    };
    for (const char* name : expected)
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_GE(reg.entries().size(), 40u);
}

} // namespace
