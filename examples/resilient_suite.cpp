/**
 * @file
 * Resilient-suite demo: run a benchmark suite in which two jobs are
 * deliberately broken — one replays a corrupted trace file, one hangs
 * and trips the simulation watchdog — and show that the remaining
 * benchmarks still complete and aggregate.  Every failure is reported
 * with its typed error code; the deadlock comes with the watchdog's
 * pipeline-state dump.
 *
 *   ./resilient_suite [instructions=40000] [dir=/tmp] [jobs=4]
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench/common.hh"
#include "study/checkpoint.hh"
#include "study/parallel.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace
{

const std::vector<fo4::util::KeyDoc> kKeys = {
    {"instructions", "measured instructions per benchmark"},
    {"dir", "directory for the deliberately corrupted trace file"},
    {"jobs", "worker threads (1 = serial, 0 = all cores)"},
    {"verbose", "print cache and metrics diagnostics"},
    {"stats", "write the per-benchmark stats CSV here"},
    {"trace", "write a Chrome pipeline trace of one benchmark here"},
    {"trace_start", "first cycle the trace records"},
    {"trace_cycles", "length of the traced cycle window"},
};

/**
 * Record a short capture, then overwrite one record's op-class byte
 * with a value no ISA defines — the kind of damage a bad disk produces,
 * caught by the op frame's CRC.
 */
std::string
makeCorruptTrace(const std::string &dir)
{
    using namespace fo4;
    const std::string path = dir + "/resilient_suite_corrupt.fo4cap";
    {
        auto prof = trace::spec2000Profile("164.gzip");
        trace::SyntheticTraceGenerator gen(prof);
        auto writer = trace::CaptureWriter::create(path);
        for (int i = 0; i < 4096; ++i)
            writer.append(gen.next());
        writer.close();
    }
    // Layout: 32-byte header, 9-byte empty meta frame, then the op
    // frame's 8-byte head and kind byte; cls is byte 30 of a record.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(50 + 32 * 100 + 30);
    if (!f.put(static_cast<char>(0xEE)).flush()) {
        throw util::TraceError(
            util::ErrorCode::TraceIo,
            "cannot reopen " + path + " for corruption");
    }
    return path;
}

int
resilientSuite(int argc, char **argv)
{
    using namespace fo4;
    const auto cfg = util::Config::fromArgs(argc, argv);
    cfg.checkKnown(kKeys);
    const auto obs = bench::observabilityFromArgs(argc, argv);

    study::RunSpec spec;
    spec.instructions = cfg.getInt("instructions", 40000);
    spec.warmup = spec.instructions / 8;
    spec.prewarm = 200000;

    const auto params = study::scaledCoreParams(6.0, {});
    const auto clock = study::scaledClock(6.0);

    // Four healthy benchmarks...
    std::vector<study::BenchJob> jobs;
    for (const char *name : {"176.gcc", "181.mcf", "197.parser",
                             "256.bzip2"}) {
        jobs.push_back(study::BenchJob::fromProfile(
            trace::spec2000Profile(name)));
    }

    // ...one replaying a trace file with a damaged record...
    const std::string dir = cfg.getString("dir", "/tmp");
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt-trace", trace::BenchClass::Integer,
        makeCorruptTrace(dir)));

    // ...and one that makes no forward progress within its cycle
    // budget, so the watchdog fires and captures the pipeline state.
    auto hung = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    hung.name = "hung-config";
    hung.cycleLimit = 10; // far below any real completion time
    jobs.push_back(hung);

    // Ctrl-C aborts the suite cooperatively (exit 130) instead of
    // killing the process mid-write.
    util::CancelToken cancel;
    util::installSigintCancel(cancel);

    // Fault isolation holds under parallel execution too: a deadlocked
    // or corrupt job fails alone no matter which worker ran it.  The
    // checkpointed runner (journalless here) threads the cancel token
    // down to every simulation's per-cycle check.
    study::CheckpointOptions copts;
    copts.threads = static_cast<int>(cfg.getPositiveInt("jobs", 1));
    copts.cancel = &cancel;
    study::CheckpointedRunner runner(std::move(copts));
    std::printf("running %zu benchmarks (2 sabotaged on purpose) on %d "
                "worker thread(s)\n\n",
                jobs.size(), runner.threads());
    const auto suite =
        runner.runGrid({study::GridPoint{params, clock}}, jobs, spec)
            .front();
    study::printSuite(std::cout, suite);

    // The suite ran to the end; the broken jobs are data, not a crash.
    const auto failures = suite.failures();
    if (failures.size() != 2 ||
        suite.succeeded() != jobs.size() - failures.size()) {
        std::fprintf(stderr, "unexpected failure pattern\n");
        return 1;
    }
    std::printf("\nsuite survived both injected faults; %zu of %zu "
                "benchmarks aggregated\n",
                suite.succeeded(), suite.benchmarks.size());

    // stats=: the CSV carries the failed rows too, with their error
    // codes in the status column; trace=: timeline of a healthy job.
    if (obs.wantsStats()) {
        auto rows = std::vector<std::vector<std::string>>{
            fo4::bench::statsHeader("grid_point")};
        for (auto &row : fo4::bench::statsRows("6fo4", suite))
            rows.push_back(std::move(row));
        fo4::bench::writeStats(obs.statsPath, rows);
    }
    fo4::bench::maybeWriteTrace(obs, params, clock, jobs.front(), spec);
    fo4::bench::printLatencyCacheStats(cfg.getBool("verbose", false));
    fo4::bench::printMetricsRegistry(cfg.getBool("verbose", false));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return fo4::util::runTopLevel(
        argc, argv, kKeys, [&] { return resilientSuite(argc, argv); });
}
