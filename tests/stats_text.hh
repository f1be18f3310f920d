/**
 * @file
 * Test helper: normalize stats-dump text for byte comparisons.
 *
 * Stats dumps open with a "# runtime:" line (wall clock, events/sec,
 * volatile by design) and, when tracing ran, a "# trace:" line (which
 * an untraced run lacks); docs/METRICS.md documents both as excluded
 * from determinism comparisons. Tests asserting that two dumps are
 * byte-identical strip them first.
 */

#ifndef DTSIM_TESTS_STATS_TEXT_HH
#define DTSIM_TESTS_STATS_TEXT_HH

#include <sstream>
#include <string>

namespace dtsim {
namespace test {

inline std::string
stripRuntime(const std::string& dump)
{
    std::istringstream in(dump);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 10, "# runtime:") == 0 ||
            line.compare(0, 8, "# trace:") == 0)
            continue;
        out << line << "\n";
    }
    return out.str();
}

} // namespace test
} // namespace dtsim

#endif // DTSIM_TESTS_STATS_TEXT_HH
