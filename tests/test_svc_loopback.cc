/**
 * @file
 * End-to-end service tests over a real loopback socket: an in-process
 * svc::Server on an ephemeral port, driven by svc::Client.
 *
 * The headline assertion is the service's identity guarantee: a sweep
 * fetched over the wire is byte-identical to the same sweep run locally
 * through svc::runSweep — at thread count 1 and 8, including the
 * position and typed error of failed rows under injected faults (a
 * corrupt trace file and a watchdog-tripping cycle limit).
 *
 * Around it: admission control (queue bound 1 refuses with Overloaded),
 * cancellation of queued and running jobs, NotFound/NotReady lifecycle
 * errors, stats gauges, and a garbage-frame session that must cost the
 * connection but never the daemon.
 *
 * The held poll: JobTable::status(id, waitMs) wakes on every terminal
 * transition and on shutdown, and otherwise answers at its deadline;
 * over the wire, a store hit finishes waitUntilDone in one reply, a
 * wait_ms above the cap is a typed refusal, and stop() releases a held
 * session at once instead of after the hold.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "svc/client.hh"
#include "svc/queue.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "trace/generator.hh"
#include "trace/capture.hh"
#include "trace/spec2000.hh"
#include "util/metrics.hh"
#include "util/net.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;

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

/**
 * Record a short capture, then overwrite one record's op-class byte
 * with a value no ISA defines — the resilient_suite fault, injected
 * here so the wire sweep carries a deterministically failing row.
 */
std::string
makeCorruptTrace()
{
    const std::string path = tempPath("svc_loopback_corrupt.fo4cap");
    {
        auto prof = trace::spec2000Profile("164.gzip");
        trace::SyntheticTraceGenerator gen(prof);
        auto writer = trace::CaptureWriter::create(path);
        for (int i = 0; i < 4096; ++i)
            writer.append(gen.next());
        writer.close();
    }
    // Layout: 32-byte header, 9-byte empty meta frame, then the op
    // frame's 8-byte head and kind byte.  The rotted byte no longer
    // matches its frame CRC.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(50 + 32 * 100 + 30);
    f.put(static_cast<char>(0xEE));
    return path;
}

/** A small but adversarial sweep: two healthy jobs, one corrupt-trace
 *  job, one hung job — failed rows must keep their place and verdict. */
svc::SweepRequest
faultedRequest(const std::string &corruptPath)
{
    svc::SweepRequest req;
    req.instructions = 2000;
    req.warmup = 250;
    req.prewarm = 10000;
    req.tUseful = {8.0, 6.0};

    svc::WireJob healthy;
    healthy.name = "164.gzip";
    req.jobs.push_back(healthy);

    svc::WireJob corrupt;
    corrupt.name = "corrupt-trace";
    corrupt.cls = trace::BenchClass::Integer;
    corrupt.fromTrace = true;
    corrupt.tracePath = corruptPath;
    req.jobs.push_back(corrupt);

    svc::WireJob hung;
    hung.name = "181.mcf";
    hung.cycleLimit = 10; // far below any real completion time
    req.jobs.push_back(hung);

    svc::WireJob healthy2;
    healthy2.name = "256.bzip2";
    req.jobs.push_back(healthy2);
    return req;
}

/** A sweep long enough to still be Running when we cancel it. */
svc::SweepRequest
longRequest()
{
    svc::SweepRequest req;
    req.instructions = 2000000;
    req.warmup = 1000;
    req.prewarm = 100000;
    req.tUseful = {6.0};
    svc::WireJob job;
    job.name = "164.gzip";
    req.jobs.push_back(job);
    return req;
}

svc::Server
makeServer(int threads, std::size_t maxQueue = 8,
           const std::string &cacheDir = "")
{
    svc::ServerOptions options;
    options.port = 0;
    options.threads = threads;
    options.maxQueue = maxQueue;
    options.cacheDir = cacheDir;
    return svc::Server(std::move(options));
}

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** A hold far longer than any transition these tests wait for, so an
 *  answer well inside it proves the wait woke on the transition. */
constexpr std::uint64_t kLongHoldMs = svc::kMaxPollWaitMs;

/** Generous bound on a woken hold (TSan-safe), far below kLongHoldMs. */
constexpr double kPromptMs = 1000.0;

/** Hold `table.status(id, kLongHoldMs)` while `settle` runs on another
 *  thread 50 ms in; returns the held status and how long it took. */
std::pair<svc::JobStatusInfo, double>
holdAcross(svc::JobTable &table, std::uint64_t id,
           const std::function<void()> &settle)
{
    std::thread settler([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        settle();
    });
    const Clock::time_point start = Clock::now();
    const svc::JobStatusInfo info = table.status(id, kLongHoldMs);
    const double heldMs = msSince(start);
    settler.join();
    return {info, heldMs};
}

} // namespace

// ---------------------------------------------------------------------
// The identity guarantee
// ---------------------------------------------------------------------

TEST(SvcLoopback, FetchedResultsAreByteIdenticalToLocalRun)
{
    const std::string corruptPath = makeCorruptTrace();
    const svc::SweepRequest request = faultedRequest(corruptPath);

    // Local references: the wire form of the request, run in-process at
    // 1 and 8 threads, must agree with each other (the parallel
    // engine's contract) ...
    const svc::SweepPlan plan =
        svc::planSweep(svc::SweepRequest::decode(request.encode()));
    const std::string local1 = svc::runSweep(plan, 1, "", nullptr, {});
    const std::string local8 = svc::runSweep(plan, 8, "", nullptr, {});
    EXPECT_EQ(local1, local8);

    // ... and the failed rows must be present, in place, typed.
    EXPECT_NE(local1.find("TraceCorrupt"), std::string::npos);
    EXPECT_NE(local1.find("Deadlock"), std::string::npos);

    // Served at 8 worker threads.
    svc::Server server8 = makeServer(8);
    {
        svc::Client client("127.0.0.1", server8.port());
        const auto [id, cells] = client.submit(request);
        EXPECT_EQ(cells, 2u * 4u);
        const svc::JobStatusInfo done = client.waitUntilDone(id, 50);
        ASSERT_EQ(done.state, svc::JobState::Done) << done.errorMessage;
        EXPECT_EQ(done.cellsStarted, cells);
        EXPECT_EQ(client.fetchResults(id), local1);
    }
    server8.stop();
    server8.join();

    // Served serially: same bytes again.
    svc::Server server1 = makeServer(1);
    {
        svc::Client client("127.0.0.1", server1.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        client.waitUntilDone(id, 50);
        EXPECT_EQ(client.fetchResults(id), local1);
    }
    server1.stop();
    server1.join();
}

// ---------------------------------------------------------------------
// Lifecycle and admission control
// ---------------------------------------------------------------------

TEST(SvcLoopback, UnknownIdIsNotFound)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    try {
        client.poll(424242);
        FAIL() << "poll of unknown id succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    try {
        client.fetchResults(424242);
        FAIL() << "fetch of unknown id succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    server.stop();
    server.join();
}

TEST(SvcLoopback, InvalidRequestIsRefusedAtSubmit)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    svc::SweepRequest request;
    request.tUseful = {6.0};
    svc::WireJob job;
    job.name = "999.does-not-exist";
    request.jobs.push_back(job);
    try {
        client.submit(request);
        FAIL() << "unknown profile accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    // The refusal cost nothing: the connection still works.
    EXPECT_EQ(client.stats().submitted, 0u);
    server.stop();
    server.join();
}

TEST(SvcLoopback, FullQueueRefusesWithOverloadedAndNotReadyWhileRunning)
{
    svc::Server server = makeServer(1, /*maxQueue=*/1);
    svc::Client client("127.0.0.1", server.port());

    const auto [running, runningCells] = client.submit(longRequest());
    (void)runningCells;
    // Wait until the dispatcher owns it, so the queue slot is free.
    while (client.poll(running).state == svc::JobState::Queued)
        ;

    // Results before completion: a typed NotReady, not a hang.
    try {
        client.fetchResults(running);
        FAIL() << "fetch of a running job succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotReady);
    }

    const auto [queued, queuedCells] = client.submit(longRequest());
    (void)queuedCells;
    EXPECT_EQ(client.poll(queued).state, svc::JobState::Queued);
    EXPECT_EQ(client.poll(queued).queuePosition, 1u);

    // The bound is 1 and the slot is taken: admission refuses.
    try {
        client.submit(longRequest());
        FAIL() << "submit beyond the queue bound succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Overloaded);
    }
    EXPECT_EQ(client.stats().rejected, 1u);

    // Cancel the queued job: it never ran, terminal immediately.
    const svc::JobStatusInfo cancelled = client.cancel(queued);
    EXPECT_EQ(cancelled.state, svc::JobState::Cancelled);
    EXPECT_EQ(cancelled.cellsStarted, 0u);

    // Cancel the running job: cooperative drain, then terminal.
    client.cancel(running);
    const svc::JobStatusInfo drained = client.waitUntilDone(running, 50);
    EXPECT_EQ(drained.state, svc::JobState::Cancelled);
    try {
        client.fetchResults(running);
        FAIL() << "fetch of a cancelled job succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    }

    const svc::StatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.queueDepth, 0u);
    EXPECT_EQ(stats.maxQueue, 1u);
    server.stop();
    server.join();
}

TEST(SvcLoopback, CancelIsIdempotentOnTerminalJobs)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    const auto [id, cells] = client.submit(longRequest());
    (void)cells;
    client.cancel(id);
    const svc::JobStatusInfo first = client.waitUntilDone(id, 50);
    EXPECT_EQ(first.state, svc::JobState::Cancelled);
    const svc::JobStatusInfo second = client.cancel(id);
    EXPECT_EQ(second.state, svc::JobState::Cancelled);
    EXPECT_EQ(client.stats().cancelled, 1u);
    server.stop();
    server.join();
}

TEST(SvcLoopback, StatsReportTheTrueMeanSweepWallInMs)
{
    const bool wasEnabled = util::setMetricsEnabled(true);
    util::MetricsRegistry::global().histogram("svc.sweep_wall_ms").reset();
    util::MetricsRegistry::global().counter("svc.sweep_wall_us").reset();
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    svc::SweepRequest request = longRequest();
    request.instructions = 20000;

    const Clock::time_point start = Clock::now();
    const std::uint64_t id = client.submit(request).first;
    ASSERT_EQ(client.waitUntilDone(id, 200).state, svc::JobState::Done);
    const double clientMs = msSince(start);

    // The dispatcher samples the wall just after the Done transition.
    svc::StatsSnapshot stats = client.stats();
    for (int i = 0; i < 200 && stats.latencySamples == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        stats = client.stats();
    }
    ASSERT_EQ(stats.latencySamples, 1u);
    // Milliseconds, not a bucket index: inside the sampled log2 bucket
    // [2^b - 1, 2^(b+1) - 1) and no longer than the client saw.
    std::size_t b = 0;
    while (b < stats.latencyBuckets.size() && stats.latencyBuckets[b] == 0)
        ++b;
    ASSERT_LT(b, stats.latencyBuckets.size());
    EXPECT_GE(stats.latencyMeanMs, std::exp2(static_cast<double>(b)) - 1);
    EXPECT_LT(stats.latencyMeanMs,
              std::exp2(static_cast<double>(b + 1)) - 1);
    EXPECT_GT(stats.latencyMeanMs, 0.0);
    EXPECT_LE(stats.latencyMeanMs, clientMs);
    server.stop();
    server.join();
    util::setMetricsEnabled(wasEnabled);
}

// ---------------------------------------------------------------------
// Hostile peers
// ---------------------------------------------------------------------

TEST(SvcLoopback, GarbageFramesCostTheSessionNeverTheServer)
{
    const bool wasEnabled = util::setMetricsEnabled(true);
    util::MetricsRegistry::global()
        .counter("svc.protocol_errors")
        .reset();
    svc::Server server = makeServer(1);

    {
        // A frame whose CRC cannot match: typed Error frame back, then
        // the server hangs up on us.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        std::string frame = svc::encodeFrame(svc::MsgType::Stats, "");
        // flip a payload byte (body empty, so damage the type word)
        frame[svc::kFrameHeaderBytes + 2] ^= 0x55;
        raw.writeAll(frame.data(), frame.size());
        const auto reply = svc::readFrame(raw, 5000);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, svc::MsgType::Error);
        const auto [code, message] = svc::decodeError(reply->body);
        EXPECT_EQ(code, ErrorCode::Protocol);
        (void)message;
        // The server closes the session after a protocol error.
        EXPECT_FALSE(svc::readFrame(raw, 5000).has_value());
    }

    {
        // An oversize length word: refused before any allocation.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        unsigned char header[svc::kFrameHeaderBytes] = {};
        const std::uint32_t huge = 0xffffffffu;
        for (int i = 0; i < 4; ++i)
            header[i] = static_cast<unsigned char>(huge >> (8 * i));
        raw.writeAll(header, sizeof(header));
        const auto reply = svc::readFrame(raw, 5000);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->type, svc::MsgType::Error);
    }

    {
        // A truncated frame: header promises more payload than we send.
        util::TcpStream raw =
            util::TcpStream::connect("127.0.0.1", server.port());
        const std::string frame =
            svc::encodeFrame(svc::MsgType::Stats, "padding-bytes");
        raw.writeAll(frame.data(), frame.size() - 6);
        raw.close();
    }

    // The daemon survived all three: a fresh, honest session works.
    svc::Client client("127.0.0.1", server.port());
    const svc::StatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_GE(util::MetricsRegistry::global().value(
                  "svc.protocol_errors"),
              2u);
    server.stop();
    server.join();
    util::setMetricsEnabled(wasEnabled);
}

TEST(SvcLoopback, ResponseTypeSentAsRequestIsProtocolError)
{
    svc::Server server = makeServer(1);
    util::TcpStream raw =
        util::TcpStream::connect("127.0.0.1", server.port());
    svc::writeFrame(raw, svc::MsgType::Results, "not a request");
    const auto reply = svc::readFrame(raw, 5000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, svc::MsgType::Error);
    const auto [code, message] = svc::decodeError(reply->body);
    EXPECT_EQ(code, ErrorCode::Protocol);
    (void)message;
    server.stop();
    server.join();
}

// ---------------------------------------------------------------------
// Shutdown drain
// ---------------------------------------------------------------------

TEST(SvcLoopback, StopDrainsQueuedAndRunningJobs)
{
    svc::Server server = makeServer(1);
    std::uint64_t runningId = 0;
    std::uint64_t queuedId = 0;
    {
        svc::Client client("127.0.0.1", server.port());
        runningId = client.submit(longRequest()).first;
        while (client.poll(runningId).state == svc::JobState::Queued)
            ;
        queuedId = client.submit(longRequest()).first;
    }
    // stop() must cancel the queued job outright, drain the running one
    // cooperatively, and return with every thread joined.
    server.stop();
    server.join();
    SUCCEED();
    (void)queuedId;
}

// ---------------------------------------------------------------------
// The held poll: JobTable wait
// ---------------------------------------------------------------------

TEST(JobTableWait, WakesOnEveryTerminalTransition)
{
    struct Case
    {
        const char *name;
        bool dequeue; ///< let the "dispatcher" take the job first
        std::function<void(svc::JobTable &, std::uint64_t)> settle;
        svc::JobState want;
    };
    const std::vector<Case> cases = {
        {"done", true,
         [](svc::JobTable &t, std::uint64_t id) { t.markDone(id, "x"); },
         svc::JobState::Done},
        {"failed", true,
         [](svc::JobTable &t, std::uint64_t id) {
             t.markFailed(id, ErrorCode::Deadlock, "hung");
         },
         svc::JobState::Failed},
        {"cancelled while queued", false,
         [](svc::JobTable &t, std::uint64_t id) { t.cancelJob(id); },
         svc::JobState::Cancelled},
        {"cancelled while running", true,
         [](svc::JobTable &t, std::uint64_t id) {
             t.cancelJob(id); // flips the token; the job still runs
             t.markCancelled(id); // the dispatcher's drain verdict
         },
         svc::JobState::Cancelled},
        {"shutdown while queued", false,
         [](svc::JobTable &t, std::uint64_t) { t.shutdown(); },
         svc::JobState::Cancelled},
        // Shutdown wakes the hold even though the job is not terminal
        // yet: the running sweep only has its token flipped.
        {"shutdown while running", true,
         [](svc::JobTable &t, std::uint64_t) { t.shutdown(); },
         svc::JobState::Running},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        svc::JobTable table(4);
        const std::uint64_t id = table.submit(svc::SweepRequest{}, 1);
        if (c.dequeue) {
            ASSERT_NE(table.takeNext(0), nullptr);
        }
        const auto [info, heldMs] =
            holdAcross(table, id, [&] { c.settle(table, id); });
        EXPECT_EQ(info.state, c.want);
        EXPECT_GE(heldMs, 25.0) << "the status was not held";
        EXPECT_LT(heldMs, kPromptMs) << "woke on the deadline, not the "
                                        "transition";
    }
}

TEST(JobTableWait, DeadlineReturnsTheNonTerminalStatus)
{
    svc::JobTable table(4);
    const std::uint64_t queued = table.submit(svc::SweepRequest{}, 1);
    Clock::time_point start = Clock::now();
    svc::JobStatusInfo info = table.status(queued, 60);
    EXPECT_GE(msSince(start), 55.0);
    EXPECT_EQ(info.state, svc::JobState::Queued);
    EXPECT_EQ(info.queuePosition, 1u);

    ASSERT_NE(table.takeNext(0), nullptr);
    start = Clock::now();
    info = table.status(queued, 60);
    EXPECT_GE(msSince(start), 55.0);
    EXPECT_EQ(info.state, svc::JobState::Running);

    // A terminal job answers at once, however long the hold.
    table.markDone(queued, "bytes");
    start = Clock::now();
    EXPECT_EQ(table.status(queued, kLongHoldMs).state,
              svc::JobState::Done);
    EXPECT_LT(msSince(start), kPromptMs);
}

TEST(JobTableWait, UnknownIdIsNotFound)
{
    svc::JobTable table(4);
    const Clock::time_point start = Clock::now();
    try {
        table.status(424242, kLongHoldMs);
        FAIL() << "held status of an unknown id succeeded";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
    EXPECT_LT(msSince(start), kPromptMs);
}

// ---------------------------------------------------------------------
// The held poll over the wire
// ---------------------------------------------------------------------

TEST(SvcLoopback, StoreHitWaitAnswersOnTheTransitionNotTheHold)
{
    const std::string cacheDir =
        std::string(::testing::TempDir()) + "/svc_loopback_held." +
        std::to_string(::getpid());
    std::filesystem::remove_all(cacheDir);
    svc::SweepRequest request;
    request.instructions = 2000;
    request.warmup = 250;
    request.prewarm = 10000;
    request.tUseful = {8.0};
    svc::WireJob job;
    job.name = "164.gzip";
    request.jobs.push_back(job);

    // First lifetime computes and publishes to the store.
    std::string computed;
    {
        svc::Server server = makeServer(1, 8, cacheDir);
        svc::Client client("127.0.0.1", server.port());
        const std::uint64_t id = client.submit(request).first;
        ASSERT_EQ(client.waitUntilDone(id, 5000).state,
                  svc::JobState::Done);
        computed = client.fetchResults(id);
        server.stop();
        server.join();
    }

    // A restarted daemon answers from the store: one held poll, one
    // reply, in far less than the 5 s it was allowed to hold.
    svc::Server server = makeServer(1, 8, cacheDir);
    svc::Client client("127.0.0.1", server.port());
    const std::uint64_t id = client.submit(request).first;
    int replies = 0;
    const Clock::time_point start = Clock::now();
    const svc::JobStatusInfo done = client.waitUntilDone(
        id, 5000, [&](const svc::JobStatusInfo &) { ++replies; });
    EXPECT_LT(msSince(start), kPromptMs);
    EXPECT_EQ(done.state, svc::JobState::Done);
    EXPECT_EQ(replies, 1);
    EXPECT_EQ(client.fetchResults(id), computed);
    server.stop();
    server.join();
    std::filesystem::remove_all(cacheDir);
}

TEST(SvcLoopback, HeldPollAnswersAtItsDeadlineAndRefusesAboveTheCap)
{
    svc::Server server = makeServer(1);
    svc::Client::Options options;
    options.ioTimeoutMs = 2000;
    svc::Client client("127.0.0.1", server.port(), options);
    const std::uint64_t id = client.submit(longRequest()).first;

    // Not terminal within the hold: the reply comes at the deadline
    // with the in-flight status.
    const Clock::time_point start = Clock::now();
    const svc::JobStatusInfo info = client.poll(id, 150);
    EXPECT_GE(msSince(start), 140.0);
    EXPECT_FALSE(info.terminal());

    // Above the cap: a typed refusal, and the session survives it.
    try {
        client.poll(id, static_cast<int>(svc::kMaxPollWaitMs) + 1);
        FAIL() << "a hold above the cap was accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    }
    EXPECT_EQ(client.stats().submitted, 1u);

    // The client refuses intervals that would spin or outlive its
    // own read deadline before anything reaches the wire.
    for (const int pollMs : {0, -1, options.ioTimeoutMs,
                             options.ioTimeoutMs + 1}) {
        EXPECT_THROW(client.waitUntilDone(id, pollMs), util::ConfigError)
            << "pollMs " << pollMs;
    }

    client.cancel(id);
    EXPECT_EQ(client.waitUntilDone(id, 50).state,
              svc::JobState::Cancelled);
    server.stop();
    server.join();
}

TEST(SvcLoopback, StopReleasesAHeldPollPromptly)
{
    svc::Server server = makeServer(1);
    svc::Client client("127.0.0.1", server.port());
    const std::uint64_t id = client.submit(longRequest()).first;

    std::optional<svc::JobStatusInfo> held;
    std::thread holder([&] {
        svc::Client::Options options;
        options.reconnect = false;
        try {
            svc::Client heldClient("127.0.0.1", server.port(), options);
            held = heldClient.poll(id, static_cast<int>(kLongHoldMs));
        } catch (const util::SvcError &) {
            // left empty: asserted below
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const Clock::time_point start = Clock::now();
    server.stop();
    server.join();
    EXPECT_LT(msSince(start), kPromptMs)
        << "join() waited out the hold instead of waking the session";
    holder.join();
    ASSERT_TRUE(held.has_value()) << "the held poll got no reply";
    EXPECT_EQ(held->id, id);
}
