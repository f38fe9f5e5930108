/**
 * @file
 * Partition invariant of the benchmark's traced run, on a deterministic
 * tiny run of each workload: the layer spans never overlap and, with the
 * residual study.other_s, add up to the traced wall time; counted
 * metrics repeat exactly; every printed metric name is one BENCHMARK.json
 * declares, in the allowed alphabet.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "workloads.hh"

namespace
{

using perfbench::Result;
using perfbench::Sizes;

constexpr std::uint64_t kSeed = 7;

/** Metric names BENCHMARK.json lists in `section`. */
std::set<std::string>
declaredNames(const std::string &section)
{
    std::ifstream in(PERFBENCH_JSON);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    const std::size_t start = json.find("\"" + section + "\"");
    const std::size_t end = json.find(']', start);
    if (start == std::string::npos || end == std::string::npos)
        return {};
    const std::string body = json.substr(start, end - start);
    const std::regex name("\"name\"\\s*:\\s*\"([^\"]+)\"");
    std::set<std::string> out;
    for (std::sregex_iterator it(body.begin(), body.end(), name), last;
         it != last; ++it)
        out.insert((*it)[1]);
    return out;
}

std::set<std::string>
printedNames(const Result &r)
{
    std::set<std::string> out;
    for (const auto &m : r.metrics)
        out.insert(m.name);
    return out;
}

Result
run(const std::string &workload, bool traced)
{
    // A zero budget runs exactly one pass.
    return perfbench::runWorkload(workload, kSeed, 0.0, traced,
                                  Sizes::tiny(), PERFBENCH_TEST_SCRATCH,
                                  PERFBENCH_BINARY);
}

class Partition : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Partition, LayerSpansPlusOtherEqualTracedWall)
{
    const Result r = run(GetParam(), true);
    ASSERT_EQ(r.failed, 0u);
    ASSERT_GT(r.attempted, 0u);
    EXPECT_TRUE(r.spansDisjoint);
    EXPECT_GT(r.tracedWallS, 0.0);

    const double other = r.value("study.other_s");
    EXPECT_GE(other, 0.0);
    EXPECT_NEAR(r.spanSumS + other, r.tracedWallS, 1e-9 * r.tracedWallS);
    EXPECT_DOUBLE_EQ(r.value("bench.traced_wall_s"), r.tracedWallS);

    if (GetParam() != "served_mix") {
        // With one pass the reported layer totals are that pass's spans.
        const double layers =
            r.value("trace.decode_s") + r.value("core.prewarm_s") +
            r.value("core.run_s") + r.value("cacti.params_s") +
            r.value("study.serialize_s");
        EXPECT_NEAR(layers + other, r.tracedWallS, 1e-9 * r.tracedWallS);
    }
}

TEST_P(Partition, CountedMetricsRepeatExactly)
{
    const Result a = run(GetParam(), true);
    const Result b = run(GetParam(), true);
    ASSERT_EQ(a.failed, 0u);
    ASSERT_EQ(b.failed, 0u);
    for (const char *name :
         {"core.cycles", "trace.records", "core.prewarm_states",
          "study.cells", "study.failed_cells", "cacti.hit_frac",
          "svc.cache_hit_frac", "util.journal_records"}) {
        if (!a.has(name))
            continue;
        EXPECT_EQ(a.value(name), b.value(name)) << name;
    }
    if (GetParam() == "served_mix") {
        EXPECT_GT(a.value("study.cells"), 0.0);
        EXPECT_GT(a.value("util.journal_records"), 0.0);
    } else {
        EXPECT_GT(a.value("core.cycles"), 0.0);
        EXPECT_GT(a.value("trace.records"), 0.0);
        EXPECT_EQ(a.digest, b.digest);
    }
}

TEST_P(Partition, PrintedNamesMatchBenchmarkJson)
{
    const std::regex nameAlphabet("[A-Za-z0-9_.-]+");
    const std::regex unitAlphabet("[A-Za-z0-9_/%.-]+");
    const Result timed = run(GetParam(), false);
    const Result traced = run(GetParam(), true);
    ASSERT_EQ(timed.failed, 0u);
    ASSERT_EQ(traced.failed, 0u);
    EXPECT_EQ(printedNames(timed), declaredNames("end_to_end"));
    EXPECT_EQ(printedNames(traced), declaredNames("per_layer"));
    for (const Result *r : {&timed, &traced}) {
        for (const auto &m : r->metrics) {
            EXPECT_TRUE(std::regex_match(m.name, nameAlphabet)) << m.name;
            EXPECT_TRUE(std::regex_match(m.unit, unitAlphabet)) << m.unit;
        }
    }
    for (const auto &m : timed.metrics)
        EXPECT_GT(m.value, 0.0) << m.name << " must never be 0";
}

INSTANTIATE_TEST_SUITE_P(Workloads, Partition,
                         ::testing::ValuesIn(perfbench::workloadNames()));

} // namespace
