/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload fig5_sweep --seed 1 --seconds 20 --trace 0
 *
 * Report lines go to standard output first; the last line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}.  `--trace 0`
 * reports the end-to-end metrics, `--trace 1` the per-layer metrics of
 * a separate traced run.  Exits 1 if any output check or unit of work
 * failed, 2 on bad arguments.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "spans.hh"
#include "workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n",
                 why);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string scratch = ".bench_build/perfbench-scratch";
    unsigned long long seed = 1;
    double seconds = 20.0;
    int trace = 0;
    int setupProbe = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + key).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            workload = value;
        } else if (key == "--scratch") {
            scratch = value;
        } else if (key == "--seed") {
            seed = std::strtoull(value, &end, 10);
        } else if (key == "--seconds") {
            seconds = std::strtod(value, &end);
        } else if (key == "--trace") {
            trace = static_cast<int>(std::strtol(value, &end, 10));
        } else if (key == "--setup-probe") {
            setupProbe = static_cast<int>(std::strtol(value, &end, 10));
        } else {
            return usage(("unknown argument " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("malformed value for " + key).c_str());
    }
    if (workload.empty())
        return usage("--workload is required");
    if (!(seconds > 0) || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");

    perfbench::Result r;
    try {
        if (setupProbe == 1) {
            // A timed run spawns this to measure setup_s: report the
            // steady-clock instant the workload is ready, then tear down.
            perfbench::setUpOnce(workload, seed, scratch, [] {
                std::printf("ready %lld\n",
                            static_cast<long long>(
                                std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(
                                    perfbench::Clock::now()
                                        .time_since_epoch())
                                    .count()));
                std::fflush(stdout);
            });
            return 0;
        }
        r = perfbench::runWorkload(workload, seed, seconds, trace == 1,
                                   perfbench::Sizes{}, scratch,
                                   "/proc/self/exe");
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("workload %s, seed %llu, %s run\n", workload.c_str(), seed,
                trace ? "traced" : "timed");
    for (const std::string &line : r.notes)
        std::printf("%s\n", line.c_str());
    for (const perfbench::Metric &m : r.metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (r.attempted > 0) {
        std::printf("error_frac %.6f (%llu failed of %llu attempted)\n",
                    static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(r.attempted));
    }

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
        json += (i ? ", " : "") + jsonString(r.metrics[i].name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(r.metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
