#include "svc/session_server.hh"

#include <cmath>

#include "svc/sweep.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

using util::ErrorCode;
using util::SvcError;

namespace
{

/**
 * Sweep wall times span four orders of magnitude (a 2-cell smoke sweep
 * to an hour-long grid), so the latency histogram is log2-bucketed:
 * bucket i holds sweeps with wall time in [2^i - 1, 2^(i+1) - 1) ms.
 * The true mean comes from the running sum "svc.sweep_wall_us".
 */
constexpr std::size_t kLatencyBuckets = 24;

std::uint64_t
latencyBucketOf(double wallMs)
{
    if (wallMs < 1.0)
        return 0;
    return static_cast<std::uint64_t>(std::log2(wallMs + 1.0));
}

util::MetricHistogram &
latencyHistogram()
{
    return util::MetricsRegistry::global().histogram("svc.sweep_wall_ms",
                                                     kLatencyBuckets);
}

} // namespace

SessionServer::SessionServer(std::uint16_t port, std::size_t maxQueue,
                             std::size_t tenantQuota)
    : table(maxQueue, tenantQuota), listener(port)
{
}

SessionServer::~SessionServer()
{
    // The derived destructor has already stopped and joined (it must:
    // session threads call its virtuals); this is the safety net for
    // the base-only paths.
    stop();
    join();
}

void
SessionServer::stop()
{
    if (stopping.exchange(true))
        return;
    listener.close();
    table.shutdown();
}

void
SessionServer::join()
{
    if (acceptThread.joinable())
        acceptThread.join();
    std::vector<std::thread> drained;
    {
        std::lock_guard<std::mutex> lock(sessionMutex);
        drained.swap(sessions);
    }
    for (auto &session : drained) {
        if (session.joinable())
            session.join();
    }
}

void
SessionServer::startAccepting()
{
    acceptThread = std::thread([this] { acceptLoop(); });
}

void
SessionServer::acceptLoop()
{
    auto &connections =
        util::MetricsRegistry::global().counter("svc.connections");
    while (!stopping.load()) {
        std::optional<util::TcpStream> stream;
        try {
            stream = listener.accept(kTickMs);
        } catch (const SvcError &) {
            // A listener error after close() is part of shutdown; any
            // other is transient — either way the loop just ticks on.
            continue;
        }
        if (!stream)
            continue;
        connections.inc();
        std::lock_guard<std::mutex> lock(sessionMutex);
        sessions.emplace_back(
            [this, s = std::move(*stream)]() mutable {
                sessionLoop(std::move(s));
            });
    }
}

void
SessionServer::sessionLoop(util::TcpStream stream)
{
    auto &protocolErrors =
        util::MetricsRegistry::global().counter("svc.protocol_errors");
    while (!stopping.load()) {
        try {
            if (!stream.waitReadable(kTickMs))
                continue;
            const std::optional<Frame> frame =
                readFrame(stream, kFrameTimeoutMs);
            if (!frame)
                return; // peer hung up between frames
            handleFrame(stream, *frame);
        } catch (const SvcError &e) {
            // A frame that cannot be trusted costs the session, never
            // the daemon: report the typed verdict while the transport
            // may still work, then hang up.
            if (e.code() == ErrorCode::Protocol)
                protocolErrors.inc();
            try {
                writeFrame(stream, MsgType::Error,
                           encodeError(e.code(), e.what()),
                           kFrameTimeoutMs);
            } catch (const SvcError &) {
                // the transport is gone too; nothing left to report
            }
            return;
        }
    }
}

bool
SessionServer::handleClientFrame(util::TcpStream &stream,
                                 const Frame &frame)
{
    // Expected per-request failures (NotFound, NotReady, Overloaded, a
    // refused request) are answered with an Error frame and the session
    // goes on; a Protocol error is a malformed body — session-fatal.
    const auto reply = [&](MsgType type, auto &&body) {
        std::string bytes;
        try {
            bytes = body();
        } catch (const util::SimError &e) {
            if (e.code() == ErrorCode::Protocol)
                throw;
            writeFrame(stream, MsgType::Error,
                       encodeError(e.code(), e.what()), kFrameTimeoutMs);
            return true;
        }
        writeFrame(stream, type, bytes, kFrameTimeoutMs);
        return true;
    };
    switch (frame.type) {
      case MsgType::SubmitSweep:
        return reply(MsgType::SubmitOk, [&] {
            SweepRequest request = SweepRequest::decode(frame.body);
            // Validate eagerly: a nonsense request is refused here,
            // synchronously, not failed minutes later in the queue.
            const SweepPlan plan = planSweep(request);
            const std::uint64_t cells = plan.cells();
            const std::uint64_t id = table.submit(
                std::move(request), cells, planFingerprint(plan));
            return encodeSubmitOk(id, cells);
        });
      case MsgType::Poll:
        // A held poll blocks this session thread until the job is
        // terminal, wait_ms runs out, or stop() shuts the table down.
        return reply(MsgType::JobStatus, [&] {
            const PollRequest poll = PollRequest::decode(frame.body);
            return table.status(poll.id, poll.waitMs).encode();
        });
      case MsgType::FetchResults:
        return reply(MsgType::Results, [&] {
            return table.fetchResults(decodeId(frame.body));
        });
      case MsgType::Cancel:
        return reply(MsgType::CancelOk, [&] {
            return table.cancelJob(decodeId(frame.body)).encode();
        });
      case MsgType::Stats:
        return reply(MsgType::StatsReport,
                     [&] { return buildStats().encode(); });
      default:
        return false;
    }
}

void
SessionServer::recordSweepWall(double wallMs)
{
    latencyHistogram().sample(latencyBucketOf(wallMs));
    util::MetricsRegistry::global()
        .counter("svc.sweep_wall_us")
        .add(static_cast<std::uint64_t>(std::llround(wallMs * 1000.0)));
}

StatsSnapshot
SessionServer::baseStats() const
{
    StatsSnapshot s;
    s.queueDepth = table.queueDepth();
    s.maxQueue = table.maxQueue();
    if (const std::shared_ptr<JobRecord> job = table.runningJob()) {
        s.runningJobs = 1;
        s.runningCellsStarted = job->cellsStarted.load();
        s.runningCellsTotal = job->cellsTotal;
    }
    s.submitted = table.submitted();
    s.rejected = table.rejected();
    s.completed = table.completed();
    s.failed = table.failed();
    s.cancelled = table.cancelled();

    const util::MetricHistogram &histogram = latencyHistogram();
    for (std::size_t i = 0; i < histogram.bucketCount(); ++i)
        s.latencyBuckets.push_back(histogram.bucket(i));
    s.latencySamples = histogram.samples();
    if (s.latencySamples != 0) {
        s.latencyMeanMs =
            static_cast<double>(util::MetricsRegistry::global().value(
                "svc.sweep_wall_us")) /
            1000.0 / static_cast<double>(s.latencySamples);
    }

    s.counters = util::MetricsRegistry::global().snapshotCounters();
    return s;
}

} // namespace fo4::svc
