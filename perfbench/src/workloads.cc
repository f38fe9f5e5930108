#include "workloads.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bp/predictors.hh"
#include "cacti/latency_cache.hh"
#include "core/warm_start.hh"
#include "spans.hh"
#include "study/batch.hh"
#include "study/checkpoint.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "svc/client.hh"
#include "svc/server.hh"
#include "svc/store.hh"
#include "svc/sweep.hh"
#include "trace/decoded_trace.hh"
#include "trace/spec2000.hh"
#include "util/journal.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace fo4;

namespace
{

/** The seed the pinned sweep digests were recorded at. */
constexpr std::uint64_t kPinnedSeed = 1;

/**
 * FNV-1a digests of the concatenated serializeSuite bytes of one pass,
 * at full size.  fig5_sweep's grid does not depend on the seed;
 * seed_replicates' is pinned at kPinnedSeed.  A change that moves either
 * changed simulated results, not just host speed.
 */
constexpr std::uint64_t kFig5Digest = 0x13c7b7eb3a4ffa7aull;
constexpr std::uint64_t kReplicatesDigest = 0x6c3225018ec1e598ull;

/** The poll interval `fo4ctl submit wait=1` passes to waitUntilDone. */
constexpr int kPollMs = 200;

/** Most passes one run makes, however short they are. */
constexpr int kMaxPasses = 64;

double
ms(Clock::time_point from, Clock::time_point to)
{
    return seconds(from, to) * 1e3;
}

/** VmHWM of this process in MB (0 if /proc is unavailable). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
hex64(std::uint64_t v)
{
    return util::strprintf("0x%016llx", static_cast<unsigned long long>(v));
}

/** Records a check: one attempt, and one failure with a note if !ok. */
void
check(Result &r, bool ok, const std::string &what)
{
    ++r.attempted;
    if (!ok) {
        ++r.failed;
        r.notes.push_back("CHECK FAILED: " + what);
    }
}

/** The end-to-end metrics every timed run prints, in order. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},        {"wall_s", "s"},      {"sim_mips", "Minst/s"},
    {"cold_p50_ms", "ms"},   {"cold_p90_ms", "ms"}, {"warm_p50_ms", "ms"},
    {"warm_p90_ms", "ms"},   {"peak_rss_mb", "MB"}, {"ok_frac", "ratio"},
};

/** The per-layer metrics every traced run prints, in order; a layer a
 *  workload does not exercise reads 0. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"trace.decode_s", "s"},
    {"trace.records", "count"},
    {"trace.mrec_per_s", "Mrec/s"},
    {"core.prewarm_s", "s"},
    {"core.prewarm_states", "count"},
    {"core.run_s", "s"},
    {"core.cycles", "count"},
    {"core.mcycles_per_s", "Mcycles/s"},
    {"cacti.params_s", "s"},
    {"cacti.hit_frac", "ratio"},
    {"study.serialize_s", "s"},
    {"study.cells", "count"},
    {"study.failed_cells", "count"},
    {"study.other_s", "s"},
    {"svc.cold_submit_ms", "ms"},
    {"svc.cold_wait_ms", "ms"},
    {"svc.cold_fetch_ms", "ms"},
    {"svc.cold_polls_per_req", "count"},
    {"svc.warm_submit_ms", "ms"},
    {"svc.warm_wait_ms", "ms"},
    {"svc.warm_fetch_ms", "ms"},
    {"svc.warm_polls_per_req", "count"},
    {"svc.plan_ms", "ms"},
    {"svc.compute_ms", "ms"},
    {"svc.store_put_ms", "ms"},
    {"svc.store_get_ms", "ms"},
    {"svc.overhead_ms", "ms"},
    {"svc.cache_hit_frac", "ratio"},
    {"util.journal_append_us", "us"},
    {"util.journal_records", "count"},
    {"bench.traced_wall_s", "s"},
    {"bench.tracing_overhead_s", "s"},
};

/** Record a metric's value; its unit comes from kEndToEnd/kPerLayer. */
void
put(Result &r, const std::string &name, double value)
{
    r.metrics.push_back({name, "", std::isfinite(value) ? value : 0.0});
}

/** `measured` in the canonical order, with units; 0 where absent. */
std::vector<Metric>
canonical(const std::vector<Metric> &measured,
          const std::vector<std::pair<std::string, std::string>> &names)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : names) {
        double value = 0.0;
        for (const Metric &m : measured) {
            if (m.name == name)
                value = m.value;
        }
        out.push_back({name, unit, value});
    }
    for (const Metric &m : measured) {
        if (std::none_of(names.begin(), names.end(),
                         [&](const auto &n) { return n.first == m.name; }))
            throw std::logic_error("undeclared metric " + m.name);
    }
    return out;
}

/** Run passes until `budget` seconds would be exceeded (at least one). */
template <typename Pass>
void
repeatPasses(double budget, Pass &&pass)
{
    const Clock::time_point start = Clock::now();
    std::vector<double> passTimes;
    do {
        const Clock::time_point t = Clock::now();
        pass();
        passTimes.push_back(seconds(t, Clock::now()));
    } while (static_cast<int>(passTimes.size()) < kMaxPasses &&
             seconds(start, Clock::now()) + median(passTimes) <= budget);
}

/**
 * Seconds from spawning `binary --setup-probe 1` until that fresh
 * process reports it is ready: process start, loading, and the
 * workload's set-up (setUpOnce).  steady_clock is system-wide, so the
 * child's timestamp compares directly with the parent's.
 */
double
probeSetup(const std::string &binary, const std::string &workload,
           std::uint64_t seed, const std::string &scratchDir)
{
    const std::string seedArg = std::to_string(seed);
    std::vector<const char *> argv = {binary.c_str(), "--workload",
                                      workload.c_str(), "--seed",
                                      seedArg.c_str(), "--scratch",
                                      scratchDir.c_str(), "--setup-probe",
                                      "1", nullptr};
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("setup probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    const Clock::time_point start = Clock::now();
    pid_t pid = -1;
    const int err =
        posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                    const_cast<char *const *>(argv.data()), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    for (ssize_t n; err == 0 && (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    if (err == 0)
        ::waitpid(pid, &status, 0);

    long long readyNs = 0;
    if (err != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(out.c_str(), "ready %lld", &readyNs) != 1)
        throw std::runtime_error("setup probe of " + workload + " failed");
    const Clock::time_point ready{std::chrono::nanoseconds(readyNs)};
    return seconds(start, ready);
}

double
medianSetup(const std::string &binary, const std::string &workload,
            std::uint64_t seed, const std::string &scratchDir, int probes)
{
    std::vector<double> times;
    for (int i = 0; i < std::max(probes, 1); ++i)
        times.push_back(probeSetup(binary, workload, seed, scratchDir));
    return median(times);
}

/** Index of the median of `values` (the lower one of an even count). */
std::size_t
medianIndex(const std::vector<double> &values)
{
    std::vector<std::size_t> order(values.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return values[a] < values[b];
    });
    return order[(order.size() - 1) / 2];
}

void
clearSimCaches()
{
    trace::DecodedTraceRegistry::global().clear();
    core::WarmStartCache::global().clear();
}

double
hitFrac(const cacti::LatencyCacheStats &s)
{
    return s.lookups() ? static_cast<double>(s.hits) /
                             static_cast<double>(s.lookups())
                       : 0.0;
}

// ---------------------------------------------------------------------
// Sweep workloads: fig5_sweep and seed_replicates.

struct SweepSetup
{
    std::vector<double> periods;
    std::vector<study::GridPoint> points;
    std::vector<study::BenchJob> jobs;
    study::RunSpec spec;
};

study::GridPoint
scaledPoint(double tUseful)
{
    const study::SweepOptions defaults;
    study::GridPoint point;
    point.params = study::scaledCoreParams(tUseful, defaults.scaling);
    point.clock = study::scaledClock(tUseful, defaults.overhead);
    return point;
}

SweepSetup
buildSweep(const std::vector<trace::BenchmarkProfile> &profiles,
           const std::vector<double> &periods, std::uint64_t instructions,
           std::uint64_t warmup, std::uint64_t prewarm)
{
    SweepSetup w;
    w.periods = periods;
    for (const double t : periods)
        w.points.push_back(scaledPoint(t));
    for (const auto &profile : profiles)
        w.jobs.push_back(study::BenchJob::fromProfile(profile));
    w.spec.model = study::CoreModel::OutOfOrder;
    w.spec.instructions = instructions;
    w.spec.warmup = warmup;
    w.spec.prewarm = prewarm;
    // The engine BatchRunner forces; the traced run calls runJobIsolated
    // directly and must select it itself.
    w.spec.impl = study::SimImpl::Batched;
    return w;
}

SweepSetup
buildFig5(const Sizes &s)
{
    auto profiles = trace::spec2000Profiles();
    profiles.resize(std::min(profiles.size(), s.fig5Profiles));
    return buildSweep(profiles, s.fig5Periods, s.fig5Instructions,
                      s.fig5Warmup, s.fig5Prewarm);
}

SweepSetup
buildReplicates(std::uint64_t seed, const Sizes &s)
{
    auto base = trace::spec2000Profiles(trace::BenchClass::Integer);
    base.resize(std::min(base.size(), s.repProfiles));
    const util::RandomStream root = util::RandomStream::root(seed);
    std::vector<trace::BenchmarkProfile> profiles;
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (int r = 0; r < s.repSeeds; ++r) {
            profiles.push_back(base[i]);
            profiles.back().seed =
                root.child(i).bits(static_cast<std::uint64_t>(r));
        }
    }
    SweepSetup w = buildSweep(profiles, s.repPeriods, s.repInstructions,
                              s.repWarmup, s.repPrewarm);
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        w.jobs[j].name = util::strprintf(
            "%s/r%zu", w.jobs[j].name.c_str(),
            j % static_cast<std::size_t>(s.repSeeds));
    }
    return w;
}

struct SweepPass
{
    double wallS = 0.0;
    std::vector<study::SuiteResult> suites;
    std::string bytes;
    /** Per-cell latency: a column's first cell decodes its stream and
     *  builds its warm state (cold); the rest replay both (warm). */
    std::vector<double> coldMs;
    std::vector<double> warmMs;
};

/** One timed pass: the batched engine behind study::sweepScalingBatched,
 *  from empty process caches, as a fresh process would run it. */
SweepPass
timedSweepPass(const SweepSetup &w)
{
    clearSimCaches();
    SweepPass out;
    study::GridProfile profile;
    const Clock::time_point t0 = Clock::now();
    out.suites = study::BatchRunner(1).runGrid(w.points, w.jobs, w.spec,
                                               &profile);
    for (const auto &suite : out.suites)
        out.bytes += study::serializeSuite(suite);
    out.wallS = seconds(t0, Clock::now());

    std::set<std::size_t> started;
    for (const study::CellProfile &cell : profile.cells) {
        if (started.insert(cell.job).second)
            out.coldMs.push_back(cell.wallMs);
        else
            out.warmMs.push_back(cell.wallMs);
    }
    return out;
}

/** Decoded records each column's cells read, measured after a pass. */
std::vector<std::uint64_t>
decodedPrefixes(const SweepSetup &w)
{
    std::vector<std::uint64_t> out;
    for (const auto &job : w.jobs) {
        out.push_back(trace::DecodedTraceRegistry::global()
                          .viewForProfile(*job.profile)
                          ->trace()
                          .materializedRecords());
    }
    return out;
}

/**
 * The same grid driven layer by layer, column-major like BatchRunner:
 * scale the points (cacti), decode each column's prefix (trace), build
 * its warm state (core.prewarm), run each cell on it (core.run), then
 * serialize (study.serialize).
 */
SweepPass
tracedSweepPass(const SweepSetup &w, const std::vector<std::uint64_t> &prefix,
                SpanLog &log)
{
    clearSimCaches();
    cacti::LatencyCache::global().clear();
    SweepPass out;
    const Clock::time_point t0 = Clock::now();

    std::vector<study::GridPoint> points(w.periods.size());
    for (std::size_t p = 0; p < points.size(); ++p)
        log.time("cacti", [&] { points[p] = scaledPoint(w.periods[p]); });
    for (const auto &point : points)
        study::validateSuiteInputs(point.params, point.clock, w.jobs, w.spec);
    const auto prototype = bp::makePredictor(w.spec.predictor);

    out.suites.resize(points.size());
    for (auto &suite : out.suites)
        suite.benchmarks.resize(w.jobs.size());
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        const auto view = log.time("trace", [&] {
            auto v = trace::DecodedTraceRegistry::global().viewForProfile(
                *w.jobs[j].profile);
            if (prefix[j] > 0)
                v->trace().record(prefix[j] - 1);
            return v;
        });
        if (w.spec.prewarm > 0) {
            log.time("core.prewarm", [&] {
                core::WarmStartCache::global().acquire(
                    view->trace(), w.spec.prewarm, points.front().params,
                    *prototype, w.spec.predictor);
            });
        }
        for (std::size_t p = 0; p < points.size(); ++p) {
            log.time("core.run", [&] {
                out.suites[p].benchmarks[j] = study::runJobIsolated(
                    points[p].params, points[p].clock, w.jobs[j], w.spec);
            });
        }
    }
    log.time("study.serialize", [&] {
        for (const auto &suite : out.suites)
            out.bytes += study::serializeSuite(suite);
    });
    out.wallS = seconds(t0, Clock::now());
    return out;
}

std::uint64_t
failedCells(const std::vector<study::SuiteResult> &suites)
{
    std::uint64_t n = 0;
    for (const auto &suite : suites)
        n += suite.failures().size();
    return n;
}

std::uint64_t
totalCycles(const std::vector<study::SuiteResult> &suites)
{
    std::uint64_t n = 0;
    for (const auto &suite : suites) {
        for (const auto &b : suite.benchmarks)
            n += b.sim.cycles;
    }
    return n;
}

/** Every sweep point within `tol` of the best: the optimum plateau. */
std::string
optimumText(const std::vector<double> &ts, const std::vector<double> &v)
{
    const std::size_t best =
        static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                 v.begin());
    std::string plateau;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] >= v[best] * (1.0 - 0.005))
            plateau += util::strprintf("%s%g", plateau.empty() ? "" : ",",
                                       ts[i]);
    }
    return util::strprintf("%g [%s]", ts[best], plateau.c_str());
}

void
reportOptima(Result &r, const SweepSetup &w, const SweepPass &pass)
{
    const std::pair<trace::BenchClass, int> classes[] = {
        {trace::BenchClass::Integer, 6},
        {trace::BenchClass::VectorFp, 4},
        {trace::BenchClass::NonVectorFp, 5}};
    r.notes.push_back(util::strprintf(
        "simulated result (reported, not gated): optimal t_useful, 0.5%% "
        "plateau in brackets; caches and predictor start prewarmed with "
        "%llu instructions",
        static_cast<unsigned long long>(w.spec.prewarm)));
    for (const auto &[cls, paper] : classes) {
        std::vector<double> bips;
        for (const auto &suite : pass.suites)
            bips.push_back(suite.harmonicBips(cls));
        if (*std::max_element(bips.begin(), bips.end()) <= 0.0)
            continue;
        r.notes.push_back(util::strprintf(
            "  %-14s %s  (paper %d)", trace::benchClassName(cls),
            optimumText(w.periods, bips).c_str(), paper));
    }
}

Result
runSweepWorkload(const std::string &name, std::uint64_t seed, double budget,
                 bool traced, const Sizes &sizes, double setupS)
{
    const bool fig5 = name == "fig5_sweep";
    Result r;
    const SweepSetup w = fig5 ? buildFig5(sizes) : buildReplicates(seed, sizes);
    const std::uint64_t cellsPerPass = w.points.size() * w.jobs.size();
    const bool fullSize = sizes.fig5Profiles == Sizes{}.fig5Profiles &&
                          sizes.repProfiles == Sizes{}.repProfiles;
    const bool pinned = fullSize && (fig5 || seed == kPinnedSeed);
    const std::uint64_t pin = fig5 ? kFig5Digest : kReplicatesDigest;

    // Every pass of a run must produce the same bytes; at the pinned
    // seed they must also match the committed digest.
    std::vector<std::uint64_t> digests;
    auto checkPass = [&](const SweepPass &pass, const char *what) {
        const std::uint64_t d = fnv1a64(pass.bytes);
        const std::uint64_t failed = failedCells(pass.suites);
        r.attempted += cellsPerPass;
        r.failed += failed;
        if (failed)
            r.notes.push_back(util::strprintf("%s pass: %llu failed cells",
                                              what,
                                              static_cast<unsigned long long>(
                                                  failed)));
        digests.push_back(d);
        check(r, d == digests.front(),
              util::strprintf("%s pass digest %s differs from the run's "
                              "first pass %s",
                              what, hex64(d).c_str(),
                              hex64(digests.front()).c_str()));
        if (pinned) {
            check(r, d == pin,
                  util::strprintf("%s pass digest %s != pinned %s", what,
                                  hex64(d).c_str(), hex64(pin).c_str()));
        }
    };

    const double instPerPass =
        static_cast<double>(cellsPerPass) *
        static_cast<double>(w.spec.warmup + w.spec.instructions);

    if (!traced) {
        std::vector<double> walls, coldMs, warmMs;
        SweepPass last;
        repeatPasses(budget, [&] {
            last = timedSweepPass(w);
            checkPass(last, "timed");
            walls.push_back(last.wallS);
            coldMs.insert(coldMs.end(), last.coldMs.begin(),
                          last.coldMs.end());
            warmMs.insert(warmMs.end(), last.warmMs.begin(),
                          last.warmMs.end());
        });
        const double wall = median(walls);
        put(r, "setup_s", setupS);
        put(r, "wall_s", wall);
        put(r, "sim_mips", instPerPass / wall / 1e6);
        put(r, "cold_p50_ms", quantile(coldMs, 0.5));
        put(r, "cold_p90_ms", quantile(coldMs, 0.9));
        put(r, "warm_p50_ms", quantile(warmMs, 0.5));
        put(r, "warm_p90_ms", quantile(warmMs, 0.9));
        put(r, "peak_rss_mb", peakRssMb());
        r.notes.push_back(util::strprintf(
            "%zu passes, %zu cells each; samples: %zu cold cells, %zu warm "
            "cells",
            walls.size(), static_cast<std::size_t>(cellsPerPass),
            coldMs.size(), warmMs.size()));
        std::string list;
        for (const double t : walls)
            list += util::strprintf(" %.3f", t);
        r.notes.push_back("pass walls (s):" + list);
        if (fig5)
            reportOptima(r, w, last);
    } else {
        std::vector<double> untracedWalls, tracedWalls;
        std::vector<SpanLog> logs;
        std::vector<std::uint64_t> prefix;
        SweepPass traced;
        repeatPasses(budget, [&] {
            const SweepPass plain = timedSweepPass(w);
            checkPass(plain, "untraced");
            untracedWalls.push_back(plain.wallS);
            const auto p = decodedPrefixes(w);
            check(r, prefix.empty() || p == prefix,
                  "decoded prefixes differ between passes");
            prefix = p;

            logs.emplace_back();
            traced = tracedSweepPass(w, prefix, logs.back());
            checkPass(traced, "traced");
            tracedWalls.push_back(traced.wallS);

            // Attribution: the cells read only what the trace span
            // decoded, and adopted only the warm states the prewarm
            // span built.
            const auto after = decodedPrefixes(w);
            check(r, after == prefix,
                  "core.run spans decoded trace records");
            check(r, core::WarmStartCache::global().size() ==
                         (w.spec.prewarm > 0 ? w.jobs.size() : 0),
                  "core.run spans built warm states");
        });

        // Layer totals come from the median traced pass, so the printed
        // spans and study.other_s add up to its wall exactly.
        const SpanLog &log = logs[medianIndex(tracedWalls)];
        auto layer = [&](const std::string &l) { return log.total(l); };
        const double wall = tracedWalls[medianIndex(tracedWalls)];
        const double sum = log.sum();
        std::uint64_t records = 0;
        for (const std::uint64_t n : prefix)
            records += n;
        const double decodeS = layer("trace");
        const double runS = layer("core.run");
        const std::uint64_t cycles = totalCycles(traced.suites);

        r.tracedWallS = wall;
        r.spanSumS = sum;
        r.spansDisjoint = std::all_of(logs.begin(), logs.end(),
                                      [](const SpanLog &l) {
                                          return l.disjoint();
                                      });
        r.digest = digests.back();

        put(r, "trace.decode_s", decodeS);
        put(r, "trace.records", static_cast<double>(records));
        put(r, "trace.mrec_per_s",
            decodeS > 0 ? static_cast<double>(records) / decodeS / 1e6 : 0);
        put(r, "core.prewarm_s", layer("core.prewarm"));
        put(r, "core.prewarm_states",
            static_cast<double>(core::WarmStartCache::global().size()));
        put(r, "core.run_s", runS);
        put(r, "core.cycles", static_cast<double>(cycles));
        put(r, "core.mcycles_per_s",
            runS > 0 ? static_cast<double>(cycles) / runS / 1e6 : 0);
        put(r, "cacti.params_s", layer("cacti"));
        put(r, "cacti.hit_frac",
            hitFrac(cacti::LatencyCache::global().stats()));
        put(r, "study.serialize_s", layer("study.serialize"));
        put(r, "study.cells", static_cast<double>(cellsPerPass));
        put(r, "study.failed_cells",
            static_cast<double>(failedCells(traced.suites)));
        put(r, "study.other_s", wall - sum);
        put(r, "bench.traced_wall_s", wall);
        put(r, "bench.tracing_overhead_s",
            wall - median(untracedWalls));
        r.notes.push_back(util::strprintf(
            "%zu traced passes; traced wall %.3f s = spans %.3f s + other "
            "%.3f s",
            logs.size(), wall, sum, wall - sum));
    }
    r.notes.push_back(util::strprintf(
        "result digest %s%s", hex64(digests.front()).c_str(),
        pinned ? " (pinned)" : ""));
    return r;
}

// ---------------------------------------------------------------------
// served_mix: one closed-loop client against an in-process fo4d.

struct ServedPlan
{
    svc::SweepRequest request;
    std::uint64_t cells = 0;
    std::string expected;
};

struct ServedRequest
{
    std::size_t plan = 0;
    bool warm = false;
};

struct ServedSetup
{
    /** Distinct plans, in the order they are first submitted. */
    std::vector<ServedPlan> plans;
    /** One request list per server lifetime. */
    std::vector<std::vector<ServedRequest>> epochs;
};

/**
 * The seeded request sequence.  Each plan is a small sweep: 2-3 profiles
 * x 2-3 periods, the default request spec at `servedInstructions`.  Cold
 * requests submit a plan for the first time; warm requests repeat a plan
 * first submitted in an *earlier* server lifetime, so the restarted
 * server answers them from the persistent ResultStore (a repeat within
 * one lifetime would be answered by the in-memory single-flight dedup
 * instead and never reach the store).
 */
ServedSetup
buildServed(std::uint64_t seed, const Sizes &s)
{
    const util::RandomStream rng = util::RandomStream::root(seed);
    std::uint64_t counter = 0;
    auto draw = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.bits(counter++) % n);
    };
    auto pick = [&](std::size_t k, std::size_t n) {
        std::vector<std::size_t> idx(n);
        for (std::size_t i = 0; i < n; ++i)
            idx[i] = i;
        for (std::size_t i = 0; i < k; ++i)
            std::swap(idx[i], idx[i + draw(n - i)]);
        idx.resize(k);
        std::sort(idx.begin(), idx.end());
        return idx;
    };

    const auto profiles = trace::spec2000Profiles();
    const std::vector<double> periods = {2, 3, 4, 5, 6, 7, 8, 9,
                                         10, 11, 12, 13, 14, 15, 16};
    ServedSetup w;
    std::set<std::string> seen;
    while (static_cast<int>(w.plans.size()) < s.servedCold) {
        // Shapes cycle 2x2, 2x3, 3x2, 3x3, so every seed computes the same
        // number of cells; the seed picks the profiles and periods.
        const std::size_t shape = w.plans.size() % 4;
        ServedPlan plan;
        plan.request.instructions = s.servedInstructions;
        std::string key;
        for (const std::size_t i : pick(2 + shape / 2, profiles.size())) {
            svc::WireJob job;
            job.name = profiles[i].name;
            job.cls = profiles[i].cls;
            plan.request.jobs.push_back(job);
            key += job.name + ",";
        }
        for (const std::size_t i : pick(2 + shape % 2, periods.size())) {
            plan.request.tUseful.push_back(periods[i]);
            key += util::strprintf("%g,", periods[i]);
        }
        if (!seen.insert(key).second)
            continue;
        plan.cells = svc::planSweep(plan.request).cells();
        w.plans.push_back(std::move(plan));
    }

    // Cold plans fill every lifetime but the last; warm repeats fill
    // every lifetime but the first, drawn without replacement (per
    // lifetime) from plans an earlier lifetime submitted.
    const int epochs = std::max(s.servedEpochs, 2);
    w.epochs.resize(static_cast<std::size_t>(epochs));
    const int coldPer = (s.servedCold + epochs - 2) / (epochs - 1);
    const int warmPer = (s.servedWarm + epochs - 2) / (epochs - 1);
    std::size_t nextPlan = 0;
    int warmLeft = s.servedWarm;
    for (int e = 0; e < epochs; ++e) {
        auto &list = w.epochs[static_cast<std::size_t>(e)];
        const std::size_t earlier = nextPlan;
        if (e > 0) {
            const std::size_t n = static_cast<std::size_t>(
                std::min(warmPer, warmLeft));
            if (n > earlier)
                throw std::logic_error("served_mix: too few earlier plans "
                                       "for the warm repeats");
            for (const std::size_t i : pick(n, earlier))
                list.push_back({i, true});
            warmLeft -= static_cast<int>(n);
        }
        for (int c = 0; c < coldPer && nextPlan < w.plans.size(); ++c)
            list.push_back({nextPlan++, false});
        for (std::size_t i = list.size(); i > 1; --i)
            std::swap(list[i - 1], list[draw(i)]);
    }
    return w;
}

/**
 * The expected bytes of every plan, computed in process outside the
 * timed loop.  Every cell of every plan is a pure function of (period,
 * profile, spec), so one grid over the profiles and periods the plans
 * use, run on the one-pass engine (byte-identical to the server's by
 * DESIGN.md §14), supplies them all; svc::renderResults, the rendering
 * svc::runSweep ends in, turns each plan's cells into its bytes.
 */
void
computeExpected(ServedSetup &w)
{
    std::set<std::string> names;
    std::set<double> periods;
    for (const ServedPlan &plan : w.plans) {
        for (const svc::WireJob &job : plan.request.jobs)
            names.insert(job.name);
        periods.insert(plan.request.tUseful.begin(),
                       plan.request.tUseful.end());
    }
    svc::SweepRequest all = w.plans.front().request;
    all.jobs.clear();
    for (const auto &profile : trace::spec2000Profiles()) {
        if (names.count(profile.name) != 0) {
            svc::WireJob job;
            job.name = profile.name;
            job.cls = profile.cls;
            all.jobs.push_back(job);
        }
    }
    all.tUseful.assign(periods.begin(), periods.end());
    const svc::SweepPlan grid = svc::planSweep(all);
    const std::vector<study::SuiteResult> cells =
        study::BatchRunner(2).runGrid(grid.points, grid.jobs, grid.spec);

    for (ServedPlan &plan : w.plans) {
        const svc::SweepPlan p = svc::planSweep(plan.request);
        std::vector<study::SuiteResult> suites(p.points.size());
        for (std::size_t i = 0; i < p.points.size(); ++i) {
            const std::size_t t = static_cast<std::size_t>(
                std::find(all.tUseful.begin(), all.tUseful.end(),
                          plan.request.tUseful[i]) -
                all.tUseful.begin());
            for (const svc::WireJob &job : plan.request.jobs) {
                const std::size_t j = static_cast<std::size_t>(
                    std::find_if(all.jobs.begin(), all.jobs.end(),
                                 [&](const svc::WireJob &a) {
                                     return a.name == job.name;
                                 }) -
                    all.jobs.begin());
                suites[i].benchmarks.push_back(cells[t].benchmarks[j]);
            }
        }
        plan.expected = svc::renderResults(p, suites);
    }
}

std::map<std::string, std::uint64_t>
cacheCounters(svc::Client &client)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : client.stats().counters) {
        if (name.rfind("svc.cache.", 0) == 0)
            out[name] = value;
    }
    return out;
}

struct ServedSample
{
    std::size_t plan = 0;
    bool warm = false;
    double totalMs = 0.0;
    double submitMs = 0.0;
    double waitMs = 0.0;
    double fetchMs = 0.0;
    int polls = 0;
};

struct ServedPass
{
    double wallS = 0.0;
    std::vector<ServedSample> samples;
    std::uint64_t cellsComputed = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Time spent recording spans: all a traced pass adds to a timed
     *  one, since both drive the same calls. */
    double tracingS = 0.0;
};

svc::ServerOptions
serverOptions(const fs::path &dir)
{
    svc::ServerOptions o;
    o.threads = 2;
    o.checkpointDir = (dir / "checkpoints").string();
    o.cacheDir = (dir / "cache").string();
    return o;
}

/** One pass of the request sequence over fresh store directories. */
ServedPass
servedPass(const ServedSetup &w, const fs::path &dir, Result &r,
           SpanLog *log)
{
    fs::remove_all(dir);
    fs::create_directories(dir / "checkpoints");
    ServedPass out;
    std::map<std::string, std::uint64_t> before, after;
    std::uint64_t coldRequests = 0, warmRequests = 0;

    const Clock::time_point t0 = Clock::now();
    for (std::size_t e = 0; e < w.epochs.size(); ++e) {
        svc::Server server(serverOptions(dir));
        {
            svc::Client client("127.0.0.1", server.port());
            if (e == 0)
                before = cacheCounters(client);
            for (const ServedRequest &req : w.epochs[e]) {
                const ServedPlan &plan = w.plans[req.plan];
                ServedSample s;
                s.plan = req.plan;
                s.warm = req.warm;
                ++r.attempted;
                try {
                    const Clock::time_point a = Clock::now();
                    const std::uint64_t id =
                        client.submit(plan.request).first;
                    const Clock::time_point b = Clock::now();
                    const svc::JobStatusInfo info = client.waitUntilDone(
                        id, kPollMs,
                        [&](const svc::JobStatusInfo &) { ++s.polls; });
                    const Clock::time_point c = Clock::now();
                    if (info.state != svc::JobState::Done)
                        throw std::runtime_error(util::strprintf(
                            "job ended %s", svc::jobStateName(info.state)));
                    const std::string bytes = client.fetchResults(id);
                    const Clock::time_point d = Clock::now();
                    s.submitMs = ms(a, b);
                    s.waitMs = ms(b, c);
                    s.fetchMs = ms(c, d);
                    s.totalMs = ms(a, d);
                    if (log != nullptr) {
                        log->add("svc.submit", a, b);
                        log->add("svc.wait", b, c);
                        log->add("svc.fetch", c, d);
                        out.tracingS += seconds(d, Clock::now());
                    }
                    if (bytes != plan.expected)
                        throw std::runtime_error("result bytes differ from "
                                                 "the in-process sweep");
                    out.samples.push_back(s);
                    (req.warm ? warmRequests : coldRequests) += 1;
                    if (!req.warm)
                        out.cellsComputed += plan.cells;
                } catch (const std::exception &ex) {
                    ++r.failed;
                    r.notes.push_back(util::strprintf(
                        "request for plan %zu failed: %s", req.plan,
                        ex.what()));
                }
            }
            if (e + 1 == w.epochs.size())
                after = cacheCounters(client);
        }
        server.stop();
        server.join();
    }
    out.wallS = seconds(t0, Clock::now());

    auto delta = [&](const char *name) {
        return after[name] - before[name];
    };
    out.cacheHits = delta("svc.cache.hit");
    out.cacheMisses = delta("svc.cache.miss");
    check(r,
          out.cacheHits == warmRequests &&
              out.cacheMisses == coldRequests &&
              delta("svc.cache.dedup") == 0,
          util::strprintf("store traffic: %llu hits / %llu misses / %llu "
                          "dedups for %llu warm / %llu cold requests",
                          static_cast<unsigned long long>(out.cacheHits),
                          static_cast<unsigned long long>(out.cacheMisses),
                          static_cast<unsigned long long>(
                              delta("svc.cache.dedup")),
                          static_cast<unsigned long long>(warmRequests),
                          static_cast<unsigned long long>(coldRequests)));
    return out;
}

struct ReplayStats
{
    std::uint64_t journalRecords = 0;
    /** Replayed sweeps with at least one failed row. */
    std::uint64_t failedSweeps = 0;
    /** Per replayed plan: plan + compute + store put, in ms. */
    std::vector<double> pathMs;
};

/**
 * The server's cold path split by layer, in process: plan the sweep,
 * compute it with a journal, publish it to a store, re-append its cell
 * records to a fresh fsync-per-record journal, and read it back.
 */
ReplayStats
replayCold(const ServedSetup &w, int count, const fs::path &dir, Result &r,
           SpanLog &log)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    svc::ResultStore store((dir / "store").string(), 0);
    ReplayStats out;
    std::vector<std::uint64_t> fingerprints;
    const std::size_t n =
        std::min(w.plans.size(), static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < n; ++i) {
        const ServedPlan &plan = w.plans[i];
        const Clock::time_point t0 = Clock::now();
        const svc::SweepPlan p =
            log.time("svc.plan", [&] { return svc::planSweep(plan.request); });
        const std::string journal =
            (dir / util::strprintf("sweep-%zu.journal", i)).string();
        bool anyFailed = false;
        const std::string bytes = log.time("svc.compute", [&] {
            return svc::runSweep(p, 2, journal, nullptr, {}, &anyFailed);
        });
        check(r, bytes == plan.expected,
              util::strprintf("replayed plan %zu differs from the "
                              "in-process sweep", i));
        if (anyFailed)
            out.failedSweeps += 1;
        const std::uint64_t fp = svc::planFingerprint(p);
        fingerprints.push_back(fp);
        log.time("svc.store_put", [&] { store.storeSweep(fp, bytes); });
        out.pathMs.push_back(ms(t0, Clock::now()));

        const util::JournalContents contents = util::readJournal(journal);
        util::JournalWriter writer = util::JournalWriter::create(
            (dir / util::strprintf("append-%zu.journal", i)).string(), fp,
            true);
        for (const std::string &payload : contents.records) {
            log.time("util.journal_append", [&] { writer.append(payload); });
            ++out.journalRecords;
        }
        writer.close();
    }
    for (std::size_t i = 0; i < n; ++i) {
        const auto got = log.time(
            "svc.store_get", [&] { return store.fetchSweep(fingerprints[i]); });
        check(r, got && *got == w.plans[i].expected,
              util::strprintf("store read of plan %zu differs", i));
    }
    return out;
}

/** `field` of every sample of one class. */
std::vector<double>
classValues(const std::vector<ServedSample> &samples, bool warm,
            double ServedSample::*field)
{
    std::vector<double> out;
    for (const ServedSample &s : samples) {
        if (s.warm == warm)
            out.push_back(s.*field);
    }
    return out;
}

/** "bin:count" pairs of `valuesMs` in 100 ms bins. */
std::string
histogram(const std::vector<double> &valuesMs)
{
    std::map<long, int> bins;
    for (const double v : valuesMs)
        ++bins[static_cast<long>(v / 100.0)];
    std::string out;
    for (const auto &[bin, n] : bins)
        out += util::strprintf("%s%ld:%d", out.empty() ? "" : " ",
                               bin * 100, n);
    return out;
}

double
meanPolls(const std::vector<ServedSample> &samples, bool warm)
{
    double sum = 0.0, n = 0.0;
    for (const ServedSample &s : samples) {
        if (s.warm == warm) {
            sum += s.polls;
            n += 1.0;
        }
    }
    return n > 0 ? sum / n : 0.0;
}

Result
runServedWorkload(std::uint64_t seed, double budget, bool traced,
                  const Sizes &sizes, const fs::path &scratch, double setupS)
{
    // As fo4d does: the served path's counters (svc.cache.*) are live.
    util::setMetricsEnabled(true);
    Result r;
    ServedSetup w = buildServed(seed, sizes);
    computeExpected(w);

    const double instPerCell = static_cast<double>(
        svc::SweepRequest{}.warmup + sizes.servedInstructions);

    if (!traced) {
        std::vector<double> walls, mips;
        std::vector<ServedSample> samples;
        repeatPasses(budget, [&] {
            const ServedPass pass = servedPass(w, scratch / "pass", r,
                                               nullptr);
            walls.push_back(pass.wallS);
            mips.push_back(static_cast<double>(pass.cellsComputed) *
                           instPerCell / pass.wallS / 1e6);
            samples.insert(samples.end(), pass.samples.begin(),
                           pass.samples.end());
        });
        const auto cold = classValues(samples, false, &ServedSample::totalMs);
        const auto warm = classValues(samples, true, &ServedSample::totalMs);
        put(r, "setup_s", setupS);
        put(r, "wall_s", median(walls));
        put(r, "sim_mips", median(mips));
        put(r, "cold_p50_ms", quantile(cold, 0.5));
        put(r, "cold_p90_ms", quantile(cold, 0.9));
        put(r, "warm_p50_ms", quantile(warm, 0.5));
        put(r, "warm_p90_ms", quantile(warm, 0.9));
        put(r, "peak_rss_mb", peakRssMb());
        r.notes.push_back(util::strprintf(
            "%zu passes of %zu server lifetimes; samples: %zu cold "
            "requests, %zu warm requests",
            walls.size(), w.epochs.size(), cold.size(), warm.size()));
        r.notes.push_back("latency histogram, 100 ms bins (cold | warm): " +
                          histogram(cold) + " | " + histogram(warm));
    } else {
        // A served pass is too long to run twice per process, and its
        // traced form differs from the timed one only by the span
        // records, so the tracing overhead is their measured cost.
        std::vector<double> tracingS, fullWalls;
        std::vector<SpanLog> logs;
        std::vector<ServedSample> samples;
        ReplayStats replay;
        std::uint64_t hits = 0, misses = 0, cells = 0;
        const cacti::LatencyCacheStats cache0 =
            cacti::LatencyCache::global().stats();
        repeatPasses(budget, [&] {
            logs.emplace_back();
            const Clock::time_point t0 = Clock::now();
            const ServedPass pass =
                servedPass(w, scratch / "pass", r, &logs.back());
            tracingS.push_back(pass.tracingS);
            replay = replayCold(w, sizes.servedReplays, scratch / "replay",
                                r, logs.back());
            fullWalls.push_back(seconds(t0, Clock::now()));
            samples.insert(samples.end(), pass.samples.begin(),
                           pass.samples.end());
            hits = pass.cacheHits;
            misses = pass.cacheMisses;
            cells = pass.cellsComputed;
        });

        auto p50ms = [&](const std::string &l) {
            std::vector<double> v;
            for (const SpanLog &log : logs) {
                const auto d = log.durations(l);
                v.insert(v.end(), d.begin(), d.end());
            }
            return quantile(v, 0.5) * 1e3;
        };
        const double wall = fullWalls[medianIndex(fullWalls)];
        const double sum = logs[medianIndex(fullWalls)].sum();
        // Overhead per replayed plan: its served latency minus the same
        // plan's in-process plan + compute + put, paired by plan so the
        // quantized latency is compared with its own compute.
        std::vector<double> overheadMs;
        for (const ServedSample &s : samples) {
            if (!s.warm && s.plan < replay.pathMs.size())
                overheadMs.push_back(s.totalMs - replay.pathMs[s.plan]);
        }
        const double planMs = p50ms("svc.plan");
        const double computeMs = p50ms("svc.compute");
        const double putMs = p50ms("svc.store_put");

        r.tracedWallS = wall;
        r.spanSumS = sum;
        r.spansDisjoint = std::all_of(logs.begin(), logs.end(),
                                      [](const SpanLog &l) {
                                          return l.disjoint();
                                      });

        for (const bool warm : {false, true}) {
            const char *cls = warm ? "warm" : "cold";
            auto p50 = [&](double ServedSample::*field) {
                return quantile(classValues(samples, warm, field), 0.5);
            };
            put(r, util::strprintf("svc.%s_submit_ms", cls),
                p50(&ServedSample::submitMs));
            put(r, util::strprintf("svc.%s_wait_ms", cls),
                p50(&ServedSample::waitMs));
            put(r, util::strprintf("svc.%s_fetch_ms", cls),
                p50(&ServedSample::fetchMs));
            put(r, util::strprintf("svc.%s_polls_per_req", cls),
                meanPolls(samples, warm));
        }
        cacti::LatencyCacheStats cache = cacti::LatencyCache::global().stats();
        cache.hits -= cache0.hits;
        cache.misses -= cache0.misses;
        put(r, "cacti.hit_frac", hitFrac(cache));
        put(r, "svc.plan_ms", planMs);
        put(r, "svc.compute_ms", computeMs);
        put(r, "svc.store_put_ms", putMs);
        put(r, "svc.store_get_ms", p50ms("svc.store_get"));
        put(r, "svc.overhead_ms", median(overheadMs));
        put(r, "svc.cache_hit_frac",
            hits + misses ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0);
        put(r, "util.journal_append_us",
            p50ms("util.journal_append") * 1e3);
        put(r, "util.journal_records",
            static_cast<double>(replay.journalRecords));
        put(r, "study.cells", static_cast<double>(cells));
        put(r, "study.failed_cells",
            static_cast<double>(replay.failedSweeps));
        put(r, "study.other_s", wall - sum);
        put(r, "bench.traced_wall_s", wall);
        put(r, "bench.tracing_overhead_s", median(tracingS));
        r.notes.push_back(util::strprintf(
            "%zu traced passes (+ %d cold plans replayed in process); "
            "traced wall %.3f s = spans %.3f s + other %.3f s",
            logs.size(), sizes.servedReplays, wall, sum, wall - sum));
    }
    return r;
}

} // namespace

Sizes
Sizes::tiny()
{
    Sizes s;
    s.fig5Profiles = 3;
    s.fig5Periods = {4, 6, 9};
    s.fig5Instructions = 2000;
    s.fig5Warmup = 250;
    s.fig5Prewarm = 5000;
    s.repProfiles = 2;
    s.repSeeds = 2;
    s.repInstructions = 2000;
    s.repWarmup = 250;
    s.repPrewarm = 5000;
    s.servedCold = 4;
    s.servedWarm = 4;
    s.servedEpochs = 2;
    s.servedInstructions = 2000;
    s.servedReplays = 2;
    s.setupProbes = 2;
    return s;
}

double
Result::value(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    throw std::out_of_range("no metric " + name);
}

bool
Result::has(const std::string &name) const
{
    return std::any_of(metrics.begin(), metrics.end(),
                       [&](const Metric &m) { return m.name == name; });
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig5_sweep", "seed_replicates", "served_mix"};
    return names;
}

std::uint64_t
fnv1a64(const std::string &bytes, std::uint64_t basis)
{
    std::uint64_t h = basis;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
setUpOnce(const std::string &workload, std::uint64_t seed,
          const std::string &scratchDir, const std::function<void()> &onReady)
{
    const Sizes sizes;
    if (workload == "fig5_sweep" || workload == "seed_replicates") {
        const SweepSetup w = workload == "fig5_sweep"
                                 ? buildFig5(sizes)
                                 : buildReplicates(seed, sizes);
        onReady();
        return;
    }
    if (workload != "served_mix")
        throw std::invalid_argument("unknown workload '" + workload + "'");
    util::setMetricsEnabled(true);
    const ServedSetup w = buildServed(seed, sizes);
    const fs::path dir = fs::path(scratchDir) /
                         util::strprintf("setup-probe-%d", ::getpid());
    fs::create_directories(dir / "checkpoints");
    {
        svc::Server server(serverOptions(dir));
        svc::Client client("127.0.0.1", server.port());
        onReady();
    }
    fs::remove_all(dir);
}

Result
runWorkload(const std::string &workload, std::uint64_t seed, double seconds,
            bool traced, const Sizes &sizes, const std::string &scratchDir,
            const std::string &binary)
{
    const bool sweep =
        workload == "fig5_sweep" || workload == "seed_replicates";
    if (!sweep && workload != "served_mix")
        throw std::invalid_argument("unknown workload '" + workload + "'");
    const double setupS =
        traced ? 0.0
               : medianSetup(binary, workload, seed, scratchDir,
                             sizes.setupProbes);
    Result r;
    if (sweep) {
        r = runSweepWorkload(workload, seed, seconds, traced, sizes, setupS);
    } else {
        const fs::path scratch = fs::path(scratchDir) / "served_mix";
        fs::remove_all(scratch);
        fs::create_directories(scratch);
        r = runServedWorkload(seed, seconds, traced, sizes, scratch, setupS);
        fs::remove_all(scratch);
    }
    // error_frac's never-zero form: the share of attempts that succeeded.
    if (!traced && r.attempted > 0) {
        put(r, "ok_frac",
            1.0 - static_cast<double>(r.failed) /
                      static_cast<double>(r.attempted));
    }
    r.metrics = canonical(r.metrics, traced ? kPerLayer : kEndToEnd);
    return r;
}

} // namespace perfbench
