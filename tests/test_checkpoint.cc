/**
 * @file
 * The crash-safe sweep engine's contract: a run interrupted after any K
 * of its N cells and resumed from the journal is byte-identical
 * (study::serializeSuite-equal) to an uninterrupted run, at any thread
 * count, including failed and exhausted-retry rows; a journal written by
 * different inputs is refused; retries happen only for transient-classed
 * failures; cancellation drains, flushes, and leaves a resumable
 * journal.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "study/checkpoint.hh"
#include "study/parallel.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

using namespace fo4;

namespace
{

std::string
tempPath(const std::string &name)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/" + name;
    std::remove(path.c_str());
    return path;
}

study::RunSpec
smallSpec()
{
    study::RunSpec spec;
    spec.instructions = 2000;
    spec.warmup = 250;
    spec.prewarm = 20000;
    spec.cycleLimit = 1000000; // fail fast instead of hanging ctest
    return spec;
}

/** Write a short capture with one record's op-class byte rotted. */
std::string
makeCorruptTrace(const std::string &name)
{
    const std::string path = tempPath(name);
    {
        auto prof = trace::spec2000Profile("164.gzip");
        trace::SyntheticTraceGenerator gen(prof);
        auto writer = trace::CaptureWriter::create(path);
        for (int i = 0; i < 512; ++i)
            writer.append(gen.next());
        writer.close();
    }
    // Layout: 32-byte header, 9-byte empty meta frame, then the op
    // frame's 8-byte head and kind byte.  The rotted byte no longer
    // matches its frame CRC.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(50 + 32 * 50 + 30);
    f.put(static_cast<char>(0xEE));
    return path;
}

/**
 * Healthy, corrupt-trace, watchdog-tripping and missing-file jobs
 * interleaved: the journal must round-trip successful rows, typed
 * failures, and a transient-classed failure that exhausts its retries.
 */
std::vector<study::BenchJob>
mixedJobs(const std::string &corruptPath)
{
    std::vector<study::BenchJob> jobs;
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("176.gcc")));
    jobs.push_back(study::BenchJob::fromTraceFile(
        "corrupt", trace::BenchClass::Integer, corruptPath));
    auto hung = study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"));
    hung.name = "hung";
    hung.cycleLimit = 20;
    jobs.push_back(hung);
    jobs.push_back(study::BenchJob::fromTraceFile(
        "missing", trace::BenchClass::Integer,
        std::string(::testing::TempDir()) + "/no_such_trace.fo4t"));
    jobs.push_back(study::BenchJob::fromProfile(
        trace::spec2000Profile("181.mcf")));
    return jobs;
}

std::vector<study::GridPoint>
twoPoints()
{
    std::vector<study::GridPoint> points(2);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);
    points[1].params = study::scaledCoreParams(9.0, {});
    points[1].clock = study::scaledClock(9.0);
    return points;
}

std::string
serializeAll(const std::vector<study::SuiteResult> &suites)
{
    std::string out;
    for (const auto &suite : suites)
        out += study::serializeSuite(suite);
    return out;
}

/** Rewrite `path` keeping only its first `keep` records. */
void
truncateJournalTo(const std::string &path, std::size_t keep)
{
    const auto contents = util::readJournal(path);
    ASSERT_GE(contents.records.size(), keep);
    auto writer =
        util::JournalWriter::create(path, contents.fingerprint);
    for (std::size_t i = 0; i < keep; ++i)
        writer.append(contents.records[i]);
    writer.close();
}

} // namespace

TEST(RetryPolicy, ClassifiesTransientVsPermanent)
{
    EXPECT_TRUE(study::RetryPolicy::transientCode(
        util::ErrorCode::TraceIo));
    EXPECT_TRUE(study::RetryPolicy::transientCode(
        util::ErrorCode::Internal));
    EXPECT_FALSE(study::RetryPolicy::transientCode(
        util::ErrorCode::InvalidConfig));
    EXPECT_FALSE(study::RetryPolicy::transientCode(
        util::ErrorCode::TraceFormat));
    EXPECT_FALSE(study::RetryPolicy::transientCode(
        util::ErrorCode::TraceCorrupt));
    EXPECT_FALSE(study::RetryPolicy::transientCode(
        util::ErrorCode::Deadlock));
    EXPECT_FALSE(study::RetryPolicy::transientCode(
        util::ErrorCode::Cancelled));
}

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndCapped)
{
    study::RetryPolicy policy;
    policy.baseDelayMs = 100.0;
    policy.backoffFactor = 2.0;
    policy.maxDelayMs = 250.0;
    policy.jitterFraction = 0.25;

    // Same (cell, attempt) -> same delay, different cells -> jitter.
    EXPECT_EQ(policy.delayMs(2, 7), policy.delayMs(2, 7));
    EXPECT_NE(policy.delayMs(2, 7), policy.delayMs(2, 8));

    for (const std::uint64_t cell : {0ull, 1ull, 42ull}) {
        const double first = policy.delayMs(2, cell);
        EXPECT_GE(first, 100.0 * 0.875);
        EXPECT_LE(first, 100.0 * 1.125);
        // Attempt 4 would be 400ms uncapped; the cap applies before
        // jitter.
        EXPECT_LE(policy.delayMs(4, cell), 250.0 * 1.125);
    }
}

TEST(RetryPolicy, ValidateReportsEveryViolationAtOnce)
{
    study::RetryPolicy policy;
    policy.maxAttempts = 0;
    policy.baseDelayMs = -1.0;
    policy.backoffFactor = 0.5;
    policy.jitterFraction = 3.0;
    const auto st = policy.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), util::ErrorCode::InvalidConfig);
    EXPECT_NE(st.message().find("maxAttempts"), std::string::npos);
    EXPECT_NE(st.message().find("baseDelayMs"), std::string::npos);
    EXPECT_NE(st.message().find("backoffFactor"), std::string::npos);
    EXPECT_NE(st.message().find("jitterFraction"), std::string::npos);

    EXPECT_TRUE(study::RetryPolicy{}.validate().isOk());
}

TEST(GridFingerprint, BindsToEveryResultInfluencingInput)
{
    const auto points = twoPoints();
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("176.gcc"))};
    const auto spec = smallSpec();

    const auto base = study::gridFingerprint(points, jobs, spec);
    EXPECT_EQ(base, study::gridFingerprint(points, jobs, spec));

    auto p2 = points;
    p2[1].params.robSize += 1;
    EXPECT_NE(base, study::gridFingerprint(p2, jobs, spec));

    auto p3 = points;
    p3[0].clock.tUsefulFo4 += 1e-9; // hexfloat catches tiny deltas
    EXPECT_NE(base, study::gridFingerprint(p3, jobs, spec));

    auto j2 = jobs;
    j2[0].profile->seed += 1;
    EXPECT_NE(base, study::gridFingerprint(points, j2, spec));

    auto s2 = spec;
    s2.instructions += 1;
    EXPECT_NE(base, study::gridFingerprint(points, jobs, s2));
}

TEST(CheckpointedRunner, ThreadCountResolution)
{
    study::CheckpointOptions opts;
    opts.threads = 5;
    EXPECT_EQ(study::CheckpointedRunner(opts).threads(), 5);
    opts.threads = 0;
    EXPECT_EQ(study::CheckpointedRunner(opts).threads(),
              util::ThreadPool::hardwareThreads());
}

TEST(CheckpointedRunner, JournallessRunMatchesParallelEngine)
{
    const auto corrupt = makeCorruptTrace("ckpt_nojournal_corrupt.fo4cap");
    const auto jobs = mixedJobs(corrupt);
    const auto points = twoPoints();
    const auto spec = smallSpec();

    const auto reference = serializeAll(
        study::ParallelRunner(1).runGrid(points, jobs, spec));

    study::CheckpointOptions opts; // journalPath empty
    opts.threads = 2;
    study::CheckpointedRunner runner(opts);
    EXPECT_EQ(serializeAll(runner.runGrid(points, jobs, spec)),
              reference);
    EXPECT_EQ(runner.report().totalCells, points.size() * jobs.size());
    EXPECT_EQ(runner.report().executedCells,
              points.size() * jobs.size());
    EXPECT_FALSE(runner.report().resumed);
    std::remove(corrupt.c_str());
}

TEST(CheckpointedRunner, JournalWriteFailureDegradesToJournallessRun)
{
    // The disk fills mid-sweep: every record append to the journal
    // fails with ENOSPC.  The contract is graceful degradation — the
    // sweep keeps computing without crash-resume, produces the same
    // bytes as a journalless run, and counts the failure — never an
    // aborted sweep over lost durability.
    const bool wasEnabled = util::setMetricsEnabled(true);
    const auto corrupt = makeCorruptTrace("ckpt_degraded_corrupt.fo4cap");
    const auto jobs = mixedJobs(corrupt);
    const auto points = twoPoints();
    const auto spec = smallSpec();

    const auto reference = serializeAll(
        study::ParallelRunner(1).runGrid(points, jobs, spec));

    const std::string journal = tempPath("ckpt_degraded.j");
    // Creation writes the header via the AtomicFile temporary and is
    // keyed off that name, so only the per-cell record appends see the
    // fault.
    util::setDiskFaultHook(
        [journal](const std::string &p)
            -> std::optional<util::DiskFault> {
            if (p == journal)
                return util::DiskFault{};
            return std::nullopt;
        });
    const std::uint64_t errs0 = util::MetricsRegistry::global().value(
        "study.journal.append_errors");

    study::CheckpointOptions opts;
    opts.journalPath = journal;
    opts.threads = 2;
    study::CheckpointedRunner runner(opts);
    const std::string bytes =
        serializeAll(runner.runGrid(points, jobs, spec));
    util::setDiskFaultHook(nullptr);

    EXPECT_EQ(bytes, reference);
    EXPECT_GE(util::MetricsRegistry::global().value(
                  "study.journal.append_errors") -
                  errs0,
              1u);
    // What remains on disk is still a trustworthy journal — just an
    // empty one (the failed first append never landed a byte), so a
    // later resume recomputes rather than trusting damaged state.
    const auto contents = util::readJournal(journal);
    EXPECT_TRUE(contents.records.empty());

    util::setMetricsEnabled(wasEnabled);
    std::remove(journal.c_str());
    std::remove(corrupt.c_str());
}

TEST(CheckpointedRunner, KofNResumeIsByteIdenticalAtEveryThreadCount)
{
    const auto corrupt = makeCorruptTrace("ckpt_resume_corrupt.fo4cap");
    const auto jobs = mixedJobs(corrupt);
    const auto points = twoPoints();
    const auto spec = smallSpec();
    const std::size_t total = points.size() * jobs.size();

    // Uninterrupted reference, no journal involved.  maxAttempts=2
    // exercises the retry loop on the missing-trace cells (TraceIo is
    // transient) without changing any result byte.
    study::RetryPolicy retry;
    retry.maxAttempts = 2;
    study::CheckpointOptions refOpts;
    refOpts.retry = retry;
    study::CheckpointedRunner refRunner(refOpts);
    const auto reference =
        serializeAll(refRunner.runGrid(points, jobs, spec));
    // The missing-trace job is transient-classed: one retry per point.
    EXPECT_EQ(refRunner.report().retriedAttempts, points.size());

    for (const int threads : {1, 8}) {
        const auto path = tempPath(
            "ckpt_resume_t" + std::to_string(threads) + ".journal");

        // Full journaled run (simulates the pre-crash process).
        {
            study::CheckpointOptions opts;
            opts.journalPath = path;
            opts.threads = threads;
            opts.retry = retry;
            study::CheckpointedRunner runner(opts);
            EXPECT_EQ(serializeAll(runner.runGrid(points, jobs, spec)),
                      reference)
                << "threads=" << threads;
        }

        // Kill-and-resume at every possible interruption point: keep
        // only the first K journal records and rerun.
        for (std::size_t keep = 0; keep <= total; ++keep) {
            truncateJournalTo(path, keep);
            study::CheckpointOptions opts;
            opts.journalPath = path;
            opts.threads = threads;
            opts.retry = retry;
            study::CheckpointedRunner runner(opts);
            EXPECT_EQ(serializeAll(runner.runGrid(points, jobs, spec)),
                      reference)
                << "threads=" << threads << " keep=" << keep;
            EXPECT_TRUE(runner.report().resumed);
            EXPECT_EQ(runner.report().replayedCells, keep);
            EXPECT_EQ(runner.report().executedCells, total - keep);
        }
        std::remove(path.c_str());
    }
    std::remove(corrupt.c_str());
}

TEST(CheckpointedRunner, SweepScalingCheckpointAndResume)
{
    const std::vector<double> ts{4, 6};
    const auto profiles =
        trace::spec2000Profiles(trace::BenchClass::VectorFp);
    const auto spec = smallSpec();
    const auto path = tempPath("ckpt_sweep.journal");

    study::SweepOptions sweep;
    const auto reference =
        study::sweepScaling(ts, sweep, profiles, spec);

    study::CheckpointOptions opts;
    opts.journalPath = path;
    study::CheckpointedRunner runner(opts);
    const auto first = runner.sweepScaling(ts, sweep, profiles, spec);
    ASSERT_EQ(first.size(), reference.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].tUseful, reference[i].tUseful);
        EXPECT_EQ(study::serializeSuite(first[i].suite),
                  study::serializeSuite(reference[i].suite));
    }

    // A complete journal resumes to a pure replay: zero simulation.
    study::CheckpointedRunner again(opts);
    const auto replayed = again.sweepScaling(ts, sweep, profiles, spec);
    EXPECT_EQ(again.report().executedCells, 0u);
    EXPECT_EQ(again.report().replayedCells,
              ts.size() * profiles.size());
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        EXPECT_EQ(study::serializeSuite(replayed[i].suite),
                  study::serializeSuite(reference[i].suite));
    }
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, ResumeAgainstChangedInputsIsRefused)
{
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    const auto points = twoPoints();
    const auto spec = smallSpec();
    const auto path = tempPath("ckpt_mismatch.journal");

    study::CheckpointOptions opts;
    opts.journalPath = path;
    study::CheckpointedRunner(opts).runGrid(points, jobs, spec);

    auto changed = spec;
    changed.instructions += 1;
    study::CheckpointedRunner resume(opts);
    try {
        resume.runGrid(points, jobs, changed);
        FAIL() << "expected ResumeMismatch";
    } catch (const util::JournalError &e) {
        EXPECT_EQ(e.code(), util::ErrorCode::ResumeMismatch);
    }
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, TornTailInJournalIsDiscardedOnResume)
{
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    const auto points = twoPoints();
    const auto spec = smallSpec();
    const auto path = tempPath("ckpt_torn.journal");

    study::CheckpointOptions opts;
    opts.journalPath = path;
    const auto reference = serializeAll(
        study::CheckpointedRunner(opts).runGrid(points, jobs, spec));

    // Keep one intact record, then simulate a crash mid-append.
    truncateJournalTo(path, 1);
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.write("\x40\x00\x00", 3); // incomplete frame words
    }

    study::CheckpointedRunner resume(opts);
    EXPECT_EQ(serializeAll(resume.runGrid(points, jobs, spec)),
              reference);
    EXPECT_TRUE(resume.report().tornTailDiscarded);
    EXPECT_EQ(resume.report().replayedCells, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, RetriesOnlyUntilAttemptsExhausted)
{
    // One missing-trace job: TraceIo, transient, never succeeds.
    const std::vector<study::BenchJob> jobs{
        study::BenchJob::fromTraceFile(
            "missing", trace::BenchClass::Integer,
            std::string(::testing::TempDir()) + "/still_missing.fo4t")};
    std::vector<study::GridPoint> points(1);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);

    std::atomic<int> attempts{0};
    study::CheckpointOptions opts;
    opts.retry.maxAttempts = 3;
    opts.onAttempt = [&](std::size_t, std::size_t, int) {
        ++attempts;
    };
    study::CheckpointedRunner runner(opts);
    const auto results = runner.runGrid(points, jobs, smallSpec());
    EXPECT_EQ(attempts.load(), 3);
    EXPECT_EQ(runner.report().retriedAttempts, 2u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].benchmarks[0].error.code(),
              util::ErrorCode::TraceIo);
}

TEST(CheckpointedRunner, PermanentFailuresAreNeverRetried)
{
    const auto corrupt = makeCorruptTrace("ckpt_noretry_corrupt.fo4cap");
    const std::vector<study::BenchJob> jobs{
        study::BenchJob::fromTraceFile(
            "corrupt", trace::BenchClass::Integer, corrupt)};
    std::vector<study::GridPoint> points(1);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);

    std::atomic<int> attempts{0};
    study::CheckpointOptions opts;
    opts.retry.maxAttempts = 5;
    opts.onAttempt = [&](std::size_t, std::size_t, int) {
        ++attempts;
    };
    study::CheckpointedRunner runner(opts);
    const auto results = runner.runGrid(points, jobs, smallSpec());
    EXPECT_EQ(attempts.load(), 1) << "TraceCorrupt must not be retried";
    EXPECT_EQ(runner.report().retriedAttempts, 0u);
    EXPECT_EQ(results[0].benchmarks[0].error.code(),
              util::ErrorCode::TraceCorrupt);
    std::remove(corrupt.c_str());
}

TEST(CheckpointedRunner, RetrySucceedsWhenTheFileReappears)
{
    const auto path = tempPath("ckpt_reappearing.fo4cap");
    const std::vector<study::BenchJob> jobs{
        study::BenchJob::fromTraceFile(
            "flaky", trace::BenchClass::Integer, path)};
    std::vector<study::GridPoint> points(1);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);

    study::CheckpointOptions opts;
    opts.threads = 1; // the hook mutates the filesystem; keep it serial
    opts.retry.maxAttempts = 3;
    opts.onAttempt = [&](std::size_t, std::size_t, int attempt) {
        if (attempt == 2) {
            // The "NFS hiccup" heals between attempts.
            auto prof = trace::spec2000Profile("164.gzip");
            trace::SyntheticTraceGenerator gen(prof);
            auto writer = trace::CaptureWriter::create(path);
            for (int i = 0; i < 4096; ++i)
                writer.append(gen.next());
            writer.close();
        }
    };
    study::CheckpointedRunner runner(opts);
    auto spec = smallSpec();
    spec.prewarm = 2000; // short file trace; keep the replay small
    const auto results = runner.runGrid(points, jobs, spec);
    EXPECT_TRUE(results[0].benchmarks[0].error.isOk())
        << results[0].benchmarks[0].error.toString();
    EXPECT_EQ(runner.report().retriedAttempts, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, CancelledUpFrontThrowsAndResumeCompletes)
{
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    const auto points = twoPoints();
    const auto spec = smallSpec();
    const auto path = tempPath("ckpt_cancel_upfront.journal");

    study::CheckpointOptions plain;
    plain.journalPath = path;
    const auto reference = serializeAll(
        study::CheckpointedRunner(plain).runGrid(points, jobs, spec));
    truncateJournalTo(path, 0); // start over with an empty journal

    util::CancelToken cancel;
    cancel.requestCancel();
    study::CheckpointOptions opts;
    opts.journalPath = path;
    opts.cancel = &cancel;
    study::CheckpointedRunner runner(opts);
    EXPECT_THROW(runner.runGrid(points, jobs, spec),
                 util::CancelledError);
    EXPECT_EQ(runner.report().executedCells, 0u);

    // The journal is intact and the run resumes to the full result.
    study::CheckpointedRunner resume(plain);
    EXPECT_EQ(serializeAll(resume.runGrid(points, jobs, spec)),
              reference);
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, CancelMidRunFlushesCompletedCellsAndResumes)
{
    const std::vector<study::BenchJob> jobs{
        study::BenchJob::fromProfile(trace::spec2000Profile("176.gcc")),
        study::BenchJob::fromProfile(trace::spec2000Profile("181.mcf")),
        study::BenchJob::fromProfile(
            trace::spec2000Profile("256.bzip2"))};
    const auto points = twoPoints();
    const auto spec = smallSpec();
    const auto path = tempPath("ckpt_cancel_mid.journal");

    study::CheckpointOptions plain;
    plain.journalPath = path;
    const auto reference = serializeAll(
        study::CheckpointedRunner(plain).runGrid(points, jobs, spec));
    truncateJournalTo(path, 0);

    // Serial run, cancel as the third cell begins: the in-flight
    // simulation aborts at its per-cycle check, cells 1-2 are already
    // durable, queued cells are skipped.
    util::CancelToken cancel;
    std::atomic<int> started{0};
    study::CheckpointOptions opts;
    opts.journalPath = path;
    opts.threads = 1;
    opts.cancel = &cancel;
    opts.onAttempt = [&](std::size_t, std::size_t, int) {
        if (++started == 3)
            cancel.requestCancel();
    };
    study::CheckpointedRunner runner(opts);
    EXPECT_THROW(runner.runGrid(points, jobs, spec),
                 util::CancelledError);

    const auto contents = util::readJournal(path);
    EXPECT_EQ(contents.records.size(), 2u)
        << "exactly the cells completed before the cancel are durable";

    study::CheckpointedRunner resume(plain);
    EXPECT_EQ(serializeAll(resume.runGrid(points, jobs, spec)),
              reference);
    EXPECT_EQ(resume.report().replayedCells, 2u);
    std::remove(path.c_str());
}

TEST(CheckpointedRunner, InvalidRetryPolicyIsConfigError)
{
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("164.gzip"))};
    std::vector<study::GridPoint> points(1);
    points[0].params = study::scaledCoreParams(6.0, {});
    points[0].clock = study::scaledClock(6.0);

    study::CheckpointOptions opts;
    opts.retry.maxAttempts = 0;
    study::CheckpointedRunner runner(opts);
    EXPECT_THROW(runner.runGrid(points, jobs, smallSpec()),
                 util::ConfigError);
}

TEST(GridFingerprint, IgnoresSimImplLikeTracers)
{
    // The batched and reference implementations are byte-identical by
    // contract (DESIGN.md §14), so the implementation choice — like an
    // attached tracer — must not change the journal identity: a sweep
    // journaled under one implementation resumes under the other.
    const auto points = twoPoints();
    const std::vector<study::BenchJob> jobs{study::BenchJob::fromProfile(
        trace::spec2000Profile("176.gcc"))};
    auto reference = smallSpec();
    reference.impl = study::SimImpl::Reference;
    auto batched = smallSpec();
    batched.impl = study::SimImpl::Batched;
    EXPECT_EQ(study::gridFingerprint(points, jobs, reference),
              study::gridFingerprint(points, jobs, batched));
}

TEST(CheckpointedRunner, CancelMidBatchedSweepResumesUnderEitherImpl)
{
    // The interrupted-sweep drill on the one-pass engine: cancel a
    // batched journaled run mid-grid, then resume it — once under the
    // batched implementation and once under the reference one — and
    // demand the uninterrupted reference runner's exact bytes both
    // times.
    const std::vector<study::BenchJob> jobs{
        study::BenchJob::fromProfile(trace::spec2000Profile("176.gcc")),
        study::BenchJob::fromProfile(trace::spec2000Profile("181.mcf")),
        study::BenchJob::fromProfile(
            trace::spec2000Profile("256.bzip2"))};
    const auto points = twoPoints();
    auto referenceSpec = smallSpec();
    auto batchedSpec = smallSpec();
    batchedSpec.impl = study::SimImpl::Batched;
    const auto path = tempPath("ckpt_cancel_batched.journal");

    const auto reference = serializeAll(
        study::ParallelRunner(1).runGrid(points, jobs, referenceSpec));

    // Serial batched run, cancelled as the third cell begins.
    util::CancelToken cancel;
    std::atomic<int> started{0};
    study::CheckpointOptions opts;
    opts.journalPath = path;
    opts.threads = 1;
    opts.cancel = &cancel;
    opts.onAttempt = [&](std::size_t, std::size_t, int) {
        if (++started == 3)
            cancel.requestCancel();
    };
    study::CheckpointedRunner runner(opts);
    EXPECT_THROW(runner.runGrid(points, jobs, batchedSpec),
                 util::CancelledError);
    EXPECT_EQ(util::readJournal(path).records.size(), 2u);

    // Resume under the batched implementation.
    study::CheckpointOptions plain;
    plain.journalPath = path;
    study::CheckpointedRunner resumeBatched(plain);
    EXPECT_EQ(
        serializeAll(resumeBatched.runGrid(points, jobs, batchedSpec)),
        reference);
    EXPECT_TRUE(resumeBatched.report().resumed);
    EXPECT_EQ(resumeBatched.report().replayedCells, 2u);

    // Cross-implementation resume: rewind to one durable record and
    // finish the batched-started journal on the reference engine.
    truncateJournalTo(path, 1);
    study::CheckpointedRunner resumeReference(plain);
    EXPECT_EQ(
        serializeAll(resumeReference.runGrid(points, jobs, referenceSpec)),
        reference);
    EXPECT_EQ(resumeReference.report().replayedCells, 1u);
    std::remove(path.c_str());
}

TEST(CellRecord, LargestCellRecordFitsTheJournalBound)
{
    // A cell record is fixed-size apart from the benchmark name and the
    // error message.  Give it a watchdog dump (the longest message a
    // cell carries) padded to 64 KiB and a long name: it must still sit
    // far inside the journal's record bound, which readJournal uses to
    // tell a rotted length word from a torn tail.
    util::DeadlockDump dump;
    dump.model = "out-of-order";
    dump.oldestStalled = std::string(64 * 1024, 'x');
    study::CellRecord cell;
    cell.result.name = std::string(256, 'n');
    cell.result.error = util::DeadlockError(dump).toStatus();
    const std::string record = study::encodeCellRecord(cell);
    EXPECT_GT(record.size(), 64u * 1024u);
    EXPECT_LT(record.size(), util::kMaxJournalRecord / 8);

    // And the journal round-trips it.
    const std::string path = tempPath("ckpt_big_cell.j");
    auto writer = util::JournalWriter::create(path, 1);
    writer.append(record);
    writer.close();
    const auto contents = util::readJournal(path);
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0], record);
    std::remove(path.c_str());

    // A record above the bound is refused on append, typed, before a
    // byte lands.
    auto refusing = util::JournalWriter::create(path, 1);
    const util::Status st = refusing.tryAppend(
        std::string(util::kMaxJournalRecord + 1, 'r'));
    EXPECT_EQ(st.code(), util::ErrorCode::JournalIo);
    refusing.close();
    EXPECT_TRUE(util::readJournal(path).records.empty());
    std::remove(path.c_str());
}
