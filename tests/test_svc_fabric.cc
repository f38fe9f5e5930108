/**
 * @file
 * The sweep fabric under test, from pure bookkeeping to full chaos.
 *
 * Unit layer (fabricated clocks, no sockets, no sleeps): CellScheduler
 * lease lifecycle — grant, first-wins completion, expiry and
 * dead-worker reclaim — and the WorkerTable failure detector's
 * Live -> Suspect -> Dead ladder.
 *
 * Integration layer (real coordinator, real in-process workers, real
 * loopback sockets): the headline identity guarantee — a sweep sharded
 * across a fleet is byte-identical to the same sweep run locally,
 * *no matter what the fleet does*.  The chaos test is the acceptance
 * criterion: one worker SIGKILLed mid-sweep (in-process kill(): the
 * cell dies unreported), another frozen behind a black-holed proxy,
 * their cells re-dispatched, the remainder finished by local fallback
 * — and the fetched bytes still cmp-equal a plain local run.
 *
 * Also here: zero-worker fleets complete via local fallback, a client
 * with reconnect enabled survives a daemon restart on the same port,
 * client timeout validation refuses non-positive deadlines, and a
 * coordinator's held poll answers a store hit in one reply.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "chaos_proxy.hh"
#include "svc/client.hh"
#include "svc/coordinator.hh"
#include "svc/lease.hh"
#include "svc/server.hh"
#include "svc/sweep.hh"
#include "svc/worker.hh"
#include "util/metrics.hh"
#include "util/status.hh"

using namespace fo4;
using util::ErrorCode;
using util::SvcError;

namespace
{

svc::FabricTime
t0()
{
    return svc::FabricClock::now();
}

svc::FabricTime
plus(svc::FabricTime base, std::uint64_t msOffset)
{
    return base + std::chrono::milliseconds(msOffset);
}

/** A modest grid: 2 depths x 2 benchmarks = 4 cells. */
svc::SweepRequest
smallRequest()
{
    svc::SweepRequest req;
    req.instructions = 6000;
    req.warmup = 500;
    req.prewarm = 20000;
    req.tUseful = {8.0, 6.0};
    for (const char *name : {"164.gzip", "181.mcf"}) {
        svc::WireJob job;
        job.name = name;
        req.jobs.push_back(std::move(job));
    }
    return req;
}

/** A bigger grid (8 cells, heavier cells) so chaos lands mid-sweep. */
svc::SweepRequest
chaosRequest()
{
    svc::SweepRequest req;
    req.instructions = 30000;
    req.warmup = 2000;
    req.prewarm = 50000;
    req.tUseful = {10.0, 8.0, 6.0, 4.6};
    for (const char *name : {"164.gzip", "256.bzip2"}) {
        svc::WireJob job;
        job.name = name;
        req.jobs.push_back(std::move(job));
    }
    return req;
}

std::string
localBytes(const svc::SweepRequest &request)
{
    // Round-trip through the wire codec first, exactly like the
    // coordinator will, so both sides plan from identical inputs.
    const svc::SweepRequest decoded =
        svc::SweepRequest::decode(request.encode());
    return svc::runSweep(svc::planSweep(decoded), 1, "", nullptr, {});
}

svc::CoordinatorOptions
fastCoordinator()
{
    svc::CoordinatorOptions opts;
    opts.port = 0;
    opts.detector.heartbeatMs = 50;
    opts.detector.suspectAfterMs = 150;
    opts.detector.deadAfterMs = 400;
    opts.leaseTimeoutMs = 2000;
    opts.tickMs = 20;
    opts.localFallback = true;
    opts.fallbackGraceMs = 300;
    return opts;
}

svc::WorkerOptions
workerFor(std::uint16_t port, const std::string &name,
          int ioTimeoutMs = 2000)
{
    svc::WorkerOptions opts;
    opts.port = port;
    opts.name = name;
    opts.connectTimeoutMs = 2000;
    opts.ioTimeoutMs = ioTimeoutMs;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// CellScheduler (pure, fabricated time)
// ---------------------------------------------------------------------

TEST(CellScheduler, GrantsEveryCellExactlyOnceThenNoWork)
{
    svc::CellScheduler sched(2, 3);
    const auto now = t0();
    std::size_t granted = 0;
    while (sched.grant(1, plus(now, 1000)))
        ++granted;
    EXPECT_EQ(6u, granted);
    EXPECT_EQ(6u, sched.leasedCount());
    EXPECT_EQ(0u, sched.pendingCount());
    EXPECT_FALSE(sched.grant(1, plus(now, 1000)).has_value());
}

TEST(CellScheduler, FirstCompletionWinsDuplicatesAreDropped)
{
    svc::CellScheduler sched(1, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    EXPECT_TRUE(sched.complete(0, 0));
    EXPECT_FALSE(sched.complete(0, 0)) << "duplicate must be dropped";
    EXPECT_EQ(1u, sched.doneCount());
    EXPECT_FALSE(sched.finished());
    EXPECT_TRUE(sched.complete(0, 1));
    EXPECT_TRUE(sched.finished());
}

TEST(CellScheduler, ExpiredLeasesReturnToPendingAndRegrant)
{
    svc::CellScheduler sched(1, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(7, plus(now, 100)).has_value());
    ASSERT_TRUE(sched.grant(7, plus(now, 5000)).has_value());

    // Only the first lease is past its expiry at +200ms.
    EXPECT_EQ(1u, sched.reclaimExpired(plus(now, 200)));
    EXPECT_EQ(1u, sched.pendingCount());
    EXPECT_EQ(1u, sched.leasedCount());

    // The reclaimed cell can be granted again — to another worker.
    const auto key = sched.grant(9, plus(now, 9000));
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(0u, sched.pendingCount());
}

TEST(CellScheduler, DeadWorkersLeasesAreReclaimedTogether)
{
    svc::CellScheduler sched(2, 2);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    ASSERT_TRUE(sched.grant(2, plus(now, 1000)).has_value());
    ASSERT_TRUE(sched.grant(1, plus(now, 1000)).has_value());
    EXPECT_EQ(2u, sched.activeLeases(1));
    EXPECT_EQ(1u, sched.activeLeases(2));

    EXPECT_EQ(2u, sched.reclaimWorker(1));
    EXPECT_EQ(0u, sched.activeLeases(1));
    // 1 never-granted cell + 2 reclaimed; worker 2's lease survives.
    EXPECT_EQ(3u, sched.pendingCount());
    EXPECT_EQ(1u, sched.leasedCount());
}

TEST(CellScheduler, CompletionFromRevokedLeaseStillCounts)
{
    svc::CellScheduler sched(1, 1);
    const auto now = t0();
    ASSERT_TRUE(sched.grant(1, plus(now, 100)).has_value());
    EXPECT_EQ(1u, sched.reclaimExpired(plus(now, 200)));
    // The original owner finishes anyway (it was slow, not dead):
    // purity makes its bytes just as good, so the completion lands.
    EXPECT_TRUE(sched.complete(0, 0));
    EXPECT_TRUE(sched.finished());
    // The re-dispatched grant is skipped lazily.
    EXPECT_FALSE(sched.grant(2, plus(now, 9000)).has_value());
}

TEST(CellScheduler, ReplayedCellsAreNeverGranted)
{
    svc::CellScheduler sched(2, 2);
    sched.markDone(0, 0);
    sched.markDone(1, 1);
    sched.markDone(1, 1); // idempotent
    EXPECT_EQ(2u, sched.doneCount());
    const auto now = t0();
    std::size_t granted = 0;
    while (sched.grant(1, plus(now, 1000)))
        ++granted;
    EXPECT_EQ(2u, granted) << "only the two unreplayed cells remain";
}

// ---------------------------------------------------------------------
// WorkerTable failure detector (pure, fabricated time)
// ---------------------------------------------------------------------

TEST(WorkerTable, SilenceDegradesLiveToSuspectToDead)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto id = fleet.registerWorker("w", 1, now);
    EXPECT_EQ(1u, fleet.liveCount());

    EXPECT_TRUE(fleet.newlyDead(plus(now, 100)).empty());
    auto rows = fleet.snapshot(plus(now, 100),
                               [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Live, rows[0].state);

    EXPECT_TRUE(fleet.newlyDead(plus(now, 200)).empty());
    rows = fleet.snapshot(plus(now, 200),
                          [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Suspect, rows[0].state);
    EXPECT_EQ(1u, fleet.liveCount()) << "a suspect still counts";

    const auto died = fleet.newlyDead(plus(now, 500));
    ASSERT_EQ(1u, died.size());
    EXPECT_EQ(id, died[0]);
    EXPECT_EQ(0u, fleet.liveCount());
    EXPECT_TRUE(fleet.newlyDead(plus(now, 600)).empty())
        << "a worker dies exactly once";
}

TEST(WorkerTable, LateHeartbeatRevivesASuspectButNeverTheDead)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto id = fleet.registerWorker("w", 1, now);

    fleet.newlyDead(plus(now, 200)); // -> Suspect
    EXPECT_TRUE(fleet.touch(id, plus(now, 250)));
    const auto rows = fleet.snapshot(plus(now, 250),
                                     [](std::uint64_t) { return 0u; });
    EXPECT_EQ(svc::WorkerState::Live, rows[0].state);

    fleet.newlyDead(plus(now, 1000)); // -> Dead
    EXPECT_FALSE(fleet.touch(id, plus(now, 1001)))
        << "dead ids are final; the worker must re-register";
    EXPECT_FALSE(fleet.touch(9999, plus(now, 1001)))
        << "unknown ids are refused";
}

TEST(WorkerTable, FreshIdsAreNeverReused)
{
    svc::WorkerTable fleet({50, 150, 400});
    const auto now = t0();
    const auto a = fleet.registerWorker("w", 1, now);
    fleet.newlyDead(plus(now, 1000)); // a dies
    const auto b = fleet.registerWorker("w", 1, plus(now, 1000));
    EXPECT_NE(a, b);
    EXPECT_EQ(2u, fleet.registeredCount());
    EXPECT_EQ(1u, fleet.liveCount());
}

// ---------------------------------------------------------------------
// Fleet integration (real sockets, real workers)
// ---------------------------------------------------------------------

TEST(Fabric, FleetSweepIsByteIdenticalToLocal)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());
    svc::Worker w1(workerFor(coord.port(), "w1"));
    svc::Worker w2(workerFor(coord.port(), "w2"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(4u, cells);
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    // Both workers visible in the roster; every cell worker-computed.
    const auto fleet = client.workers();
    EXPECT_EQ(2u, fleet.size());
    w1.stop();
    w2.stop();
    w1.join();
    w2.join();
    EXPECT_EQ(4u, w1.cellsExecuted() + w2.cellsExecuted());

    coord.stop();
    coord.join();
}

TEST(Fabric, MonteCarloFleetSweepIsByteIdenticalToLocal)
{
    // A sampled grid is just more cells: workers re-derive the sampled
    // clocks from the request body alone (counter-based streams), so a
    // fleet-sharded Monte Carlo sweep must be byte-identical to the
    // local serial run.
    // The wire nominal is uniform(overhead_fo4) — skew and jitter
    // decompose to zero — so the variation rides the latch component.
    svc::SweepRequest request = smallRequest();
    request.mcSamples = 2;
    request.mcDist = "normal";
    request.mcSigmaLatch = 0.08;
    request.mcSigmaDie = 0.05;
    request.mcSeed = 42;
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());
    svc::Worker w1(workerFor(coord.port(), "w1"));
    svc::Worker w2(workerFor(coord.port(), "w2"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    EXPECT_EQ(8u, cells); // 2 dice x 2 depths x 2 benchmarks
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    w1.stop();
    w2.stop();
    w1.join();
    w2.join();
    EXPECT_EQ(8u, w1.cellsExecuted() + w2.cellsExecuted());

    coord.stop();
    coord.join();
}

TEST(Fabric, ZeroWorkerFleetCompletesViaLocalFallback)
{
    const svc::SweepRequest request = smallRequest();
    const std::string expected = localBytes(request);

    auto opts = fastCoordinator();
    opts.fallbackGraceMs = 100; // no worker is coming; don't dawdle
    svc::Coordinator coord(opts);

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));
    EXPECT_TRUE(client.workers().empty());

    coord.stop();
    coord.join();
}

TEST(Fabric, RedispatchAfterWorkerDeathWithASurvivor)
{
    const svc::SweepRequest request = chaosRequest();
    const std::string expected = localBytes(request);

    auto opts = fastCoordinator();
    opts.localFallback = false; // force the survivor to finish it all
    svc::Coordinator coord(opts);

    svc::Worker victim(workerFor(coord.port(), "victim"));
    svc::Worker survivor(workerFor(coord.port(), "survivor"));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;

    // Let the fleet make progress, then SIGKILL the victim: its
    // in-flight cell dies unreported and must be re-dispatched.
    while (client.poll(id).cellsDone < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    victim.kill();
    victim.join();

    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id));

    // The roster must show the death — possibly a detector tick after
    // the survivor finished (the idle tick keeps judging the fleet).
    bool sawDead = false;
    for (int i = 0; i < 200 && !sawDead; ++i) {
        for (const auto &row : client.workers())
            sawDead |= row.state == svc::WorkerState::Dead;
        if (!sawDead)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    EXPECT_TRUE(sawDead);

    survivor.stop();
    survivor.join();
    EXPECT_GE(survivor.cellsExecuted() + victim.cellsExecuted(), 8u)
        << "re-dispatch means the fleet ran at least every cell";
    coord.stop();
    coord.join();
}

/**
 * The acceptance test: worker A SIGKILLed mid-sweep, worker B frozen
 * behind a black-holed proxy (connection open, no bytes moving — the
 * failure detector's hardest case), every orphaned cell re-dispatched,
 * the remainder finished locally — and the result bytes still equal an
 * uninterrupted local run exactly.
 */
TEST(Fabric, ChaosWorkersDieAndFreezeResultStaysByteIdentical)
{
    const svc::SweepRequest request = chaosRequest();
    const std::string expected = localBytes(request);

    svc::Coordinator coord(fastCoordinator());

    // Worker B dials through the chaos proxy; worker A is direct.
    // Short I/O deadline so the frozen B cycles its reconnect loop
    // instead of wedging inside one RPC for the whole test.
    tests::ChaosProxy proxy(coord.port());
    svc::Worker workerA(workerFor(coord.port(), "doomed"));
    svc::Worker workerB(workerFor(proxy.port(), "frozen", 500));

    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;

    // Wait until both workers have registered and real progress exists,
    // so the chaos lands mid-sweep, not before it.
    while (client.poll(id).cellsDone < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    proxy.blackHole(); // B freezes: alive-looking socket, no bytes
    workerA.kill();    // A dies: leased cell evaporates unreported
    workerA.join();

    // The coordinator must now: declare A and B dead (silence), reclaim
    // their leases, see zero live workers, and fall back to finishing
    // the remainder locally.  No help is coming.
    const auto status = client.waitUntilDone(id, 50);
    ASSERT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(expected, client.fetchResults(id))
        << "chaos must never change result bytes";

    bool sawDead = false;
    for (const auto &row : client.workers())
        sawDead |= row.state == svc::WorkerState::Dead;
    EXPECT_TRUE(sawDead);

    workerB.stop();
    workerB.join();
    proxy.stop();
    coord.stop();
    coord.join();
}

TEST(Fabric, WorkerDeclaredDeadReregistersUnderFreshId)
{
    auto opts = fastCoordinator();
    svc::Coordinator coord(opts);
    svc::Worker worker(workerFor(coord.port(), "lazarus", 300));
    svc::Client client("127.0.0.1", coord.port());

    // Wait for first registration.
    while (client.workers().empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto firstId = client.workers()[0].id;

    // Freeze the worker's world long enough to be declared dead —
    // cheaply simulated by just waiting: the worker only heartbeats
    // every 50ms, so instead we can't starve it that way.  Submit no
    // work and wait past deadAfterMs with the worker stopped.
    worker.stop();
    worker.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));

    // A new worker process re-registers; the old id stays Dead.
    svc::Worker reborn(workerFor(coord.port(), "lazarus", 300));
    bool sawFreshLive = false;
    for (int i = 0; i < 100 && !sawFreshLive; ++i) {
        for (const auto &row : client.workers()) {
            sawFreshLive |= row.id != firstId &&
                            row.state == svc::WorkerState::Live;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(sawFreshLive);

    reborn.stop();
    reborn.join();
    coord.stop();
    coord.join();
}

// ---------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------

TEST(ClientReconnect, PollSurvivesDaemonRestartOnSamePort)
{
    std::uint16_t port = 0;
    auto server = std::make_unique<svc::Server>(svc::ServerOptions{});
    port = server->port();

    svc::Client::Options copts;
    copts.ioTimeoutMs = 2000;
    copts.connectTimeoutMs = 2000;
    copts.retry.maxAttempts = 20;
    copts.retry.baseDelayMs = 50.0;
    copts.retry.maxDelayMs = 200.0;
    svc::Client client("127.0.0.1", port, copts);
    EXPECT_EQ(0u, client.stats().runningJobs);

    // Restart the daemon on the same port: the client's next call hits
    // a dead connection, reconnects with backoff, and completes.
    server->stop();
    server->join();
    server.reset();
    svc::ServerOptions sopts;
    sopts.port = port;
    server = std::make_unique<svc::Server>(std::move(sopts));

    EXPECT_EQ(0u, client.stats().runningJobs)
        << "the restart must cost a reconnect, not the call";

    // Polling a job the fresh daemon never saw is NotFound — a remote
    // verdict, proving the conversation reached the new daemon.
    EXPECT_THROW(
        {
            try {
                client.poll(12345);
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NotFound, e.code());
                throw;
            }
        },
        SvcError);

    server->stop();
    server->join();
}

TEST(ClientReconnect, DisabledReconnectFailsFastOnRestart)
{
    auto server = std::make_unique<svc::Server>(svc::ServerOptions{});
    const std::uint16_t port = server->port();

    svc::Client::Options copts;
    copts.reconnect = false;
    svc::Client client("127.0.0.1", port, copts);
    EXPECT_EQ(0u, client.stats().runningJobs);

    server->stop();
    server->join();
    server.reset();

    EXPECT_THROW(
        {
            try {
                client.stats();
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NetIo, e.code());
                throw;
            }
        },
        SvcError);
}

TEST(ClientOptions, NonPositiveTimeoutsAreRefused)
{
    svc::Client::Options zero;
    zero.ioTimeoutMs = 0;
    EXPECT_THROW(svc::Client("127.0.0.1", 1, zero), util::ConfigError);

    svc::Client::Options negative;
    negative.connectTimeoutMs = -5;
    EXPECT_THROW(svc::Client("127.0.0.1", 1, negative),
                 util::ConfigError);
}

TEST(Coordinator, AnswersTheSameClientProtocolAsAPlainDaemon)
{
    svc::Coordinator coord(fastCoordinator());
    svc::Client client("127.0.0.1", coord.port());

    // Unknown job id: NotFound, exactly like fo4d.
    EXPECT_THROW(
        {
            try {
                client.poll(42);
            } catch (const SvcError &e) {
                EXPECT_EQ(ErrorCode::NotFound, e.code());
                throw;
            }
        },
        SvcError);

    // Stats serves the coordinator's gauges over the same record.
    const auto stats = client.stats();
    EXPECT_EQ(0u, stats.queueDepth);

    coord.stop();
    coord.join();
}

TEST(Coordinator, StoreHitWaitAnswersOnTheTransitionNotTheHold)
{
    const std::string cacheDir =
        std::string(::testing::TempDir()) + "/svc_fabric_held." +
        std::to_string(::getpid());
    std::filesystem::remove_all(cacheDir);
    const svc::SweepRequest request = smallRequest();
    auto opts = fastCoordinator();
    opts.fallbackGraceMs = 100; // no worker is coming; don't dawdle
    opts.cacheDir = cacheDir;

    // First lifetime computes (by local fallback) and fills the store.
    {
        svc::Coordinator coord(opts);
        svc::Client client("127.0.0.1", coord.port());
        const auto [id, cells] = client.submit(request);
        (void)cells;
        ASSERT_EQ(svc::JobState::Done,
                  client.waitUntilDone(id, 5000).state);
        coord.stop();
        coord.join();
    }

    // A restarted coordinator answers from the store: the held poll
    // replies once, on the Done transition, not after its 5 s hold.
    svc::Coordinator coord(opts);
    svc::Client client("127.0.0.1", coord.port());
    const auto [id, cells] = client.submit(request);
    (void)cells;
    int replies = 0;
    const auto start = std::chrono::steady_clock::now();
    const auto status = client.waitUntilDone(
        id, 5000, [&](const svc::JobStatusInfo &) { ++replies; });
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    EXPECT_EQ(svc::JobState::Done, status.state);
    EXPECT_EQ(1, replies);
    EXPECT_EQ(localBytes(request), client.fetchResults(id));
    coord.stop();
    coord.join();
    std::filesystem::remove_all(cacheDir);
}
