/**
 * @file
 * The benchmark's three workloads, driven through the library's public
 * API only.  Each process runs exactly one workload, so one workload's
 * process-wide caches (decoded traces, warm states, structure latencies)
 * never serve another's.  See perfbench/README.md for what every metric
 * and span means.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * Workload sizes.  The defaults are the benchmark; tiny() is the same
 * code paths at test scale, for the partition-invariant test.
 */
struct Sizes
{
    // fig5_sweep: the paper's Fig 5 grid.
    std::size_t fig5Profiles = 18;
    std::vector<double> fig5Periods = {2, 3, 4, 5, 6, 7, 8,
                                       9, 10, 11, 12, 13, 14, 15, 16};
    std::uint64_t fig5Instructions = 80000;
    std::uint64_t fig5Warmup = 10000;
    std::uint64_t fig5Prewarm = 500000;

    // seed_replicates: integer profiles x seeds x periods near the optimum.
    std::size_t repProfiles = 9;
    int repSeeds = 4;
    std::vector<double> repPeriods = {5, 6, 9};
    std::uint64_t repInstructions = 10000;
    std::uint64_t repWarmup = 1250;
    std::uint64_t repPrewarm = 500000;

    // served_mix: cold and warm requests over server epochs.
    int servedCold = 100;
    int servedWarm = 100;
    int servedEpochs = 4;
    std::uint64_t servedInstructions = 20000;
    /** Cold plans the traced run replays in process (plan, compute,
     *  store, journal) to split the served latency by layer. */
    int servedReplays = 24;

    /** Set-up probes per timed run; setup_s is their median. */
    int setupProbes = 11;

    static Sizes tiny();
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one benchmark process measured. */
struct Result
{
    /** Units of work attempted (cells or requests) plus output checks. */
    std::uint64_t attempted = 0;
    /** Failed units, refused requests and failed output checks. */
    std::uint64_t failed = 0;
    /** End-to-end metrics (timed runs) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable report lines, printed before the JSON line. */
    std::vector<std::string> notes;

    /** Traced runs: the traced wall time and its span partition. */
    double tracedWallS = 0.0;
    double spanSumS = 0.0;
    bool spansDisjoint = true;

    /** 64-bit digest of the run's result bytes (sweeps). */
    std::uint64_t digest = 0;

    double value(const std::string &name) const;
    bool has(const std::string &name) const;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run `workload` for about `seconds` of measured passes (always at least
 * one).  `traced` selects the traced run, which reports per-layer
 * metrics; otherwise the end-to-end metrics are reported.  A timed run
 * measures setup_s by spawning `binary` (the perfbench executable) with
 * `--setup-probe 1`.  Temporary files live under `scratchDir`, which
 * is removed again.  Throws std::invalid_argument on an unknown workload.
 */
Result runWorkload(const std::string &workload, std::uint64_t seed,
                   double seconds, bool traced, const Sizes &sizes,
                   const std::string &scratchDir, const std::string &binary);

/**
 * The set-up a fresh process does before its first pass, at full size:
 * build the workload's inputs (for served_mix also bind a server over a
 * fresh store and connect a client), call `onReady`, then tear down.
 * Throws std::invalid_argument on an unknown workload.
 */
void setUpOnce(const std::string &workload, std::uint64_t seed,
               const std::string &scratchDir,
               const std::function<void()> &onReady);

/** FNV-1a 64-bit digest. */
std::uint64_t fnv1a64(const std::string &bytes,
                      std::uint64_t basis = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
