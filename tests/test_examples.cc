/**
 * @file
 * The shipped examples stay loadable: every .conf file in examples/
 * goes through the config loader and validateConfig(), and every one
 * in examples/sweeps/ through SweepSpec expansion with
 * validateConfig() on each grid point, so a retired key or an
 * invalid value in any of them fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "config/config_file.hh"
#include "config/sweep_spec.hh"

using namespace dtsim;

namespace {

/** The *.conf files directly under `dir`, sorted. */
std::vector<std::string>
confFiles(const std::string& dir)
{
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".conf")
            out.push_back(e.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ShippedExamples, ConfigFilesLoadAndValidate)
{
    const std::vector<std::string> files =
        confFiles(DTSIM_EXAMPLES_DIR);
    ASSERT_GE(files.size(), 2u);
    for (const std::string& path : files) {
        SimulationConfig sim;
        config::ParamRegistry reg;
        bindParams(reg, sim);
        std::string err;
        EXPECT_TRUE(config::loadConfigFile(path, reg, err)) << err;
        const std::vector<std::string> errs = validateConfig(sim);
        EXPECT_TRUE(errs.empty()) << path << ": " << errs.front();
    }
}

TEST(ShippedExamples, SweepFilesExpandAndValidate)
{
    const std::vector<std::string> files =
        confFiles(DTSIM_EXAMPLES_DIR "/sweeps");
    ASSERT_GE(files.size(), 7u);
    for (const std::string& path : files) {
        SweepSpec spec;
        std::string err;
        ASSERT_TRUE(loadSweepFile(path, spec, err)) << err;
        const std::vector<SweepPoint> points = expandSweep(spec, err);
        ASSERT_EQ(points.size(), spec.points()) << path << ": " << err;

        std::size_t feasible = 0;
        for (const SweepPoint& p : points) {
            const std::vector<std::string> errs = validateConfig(p.cfg);
            EXPECT_EQ(p.feasible, errs.empty()) << path;
            feasible += errs.empty();
            // The only infeasibility a shipped grid may hold is the
            // paper's: an HDC budget that, with the FOR layout
            // bitmap, leaves no read-ahead cache memory.
            if (!errs.empty()) {
                EXPECT_EQ(errs.size(), 1u) << path;
                EXPECT_NE(errs.front().find("FOR layout bitmap"),
                          std::string::npos)
                    << path << ": " << errs.front();
            }
        }
        EXPECT_GT(feasible, 0u) << path;
    }
}

} // namespace
