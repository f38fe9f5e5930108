#include "svc/server.hh"

#include <chrono>

#include "svc/sweep.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

using util::ErrorCode;
using util::SvcError;

Server::Server(ServerOptions options)
    : SessionServer(options.port, options.maxQueue, options.tenantQuota),
      opts(std::move(options))
{
    // A bad cache dir throws ConfigError here, at startup — a config
    // mistake is refused eagerly; only runtime faults degrade to misses.
    if (!opts.cacheDir.empty())
        store = std::make_unique<ResultStore>(opts.cacheDir,
                                              opts.cacheMaxBytes);
    dispatchThread = std::thread([this] { dispatchLoop(); });
    startAccepting();
}

Server::~Server()
{
    stop();
    join();
}

void
Server::stop()
{
    SessionServer::stop();
}

void
Server::join()
{
    SessionServer::join();
    if (dispatchThread.joinable())
        dispatchThread.join();
}

void
Server::handleFrame(util::TcpStream &stream, const Frame &frame)
{
    if (handleClientFrame(stream, frame))
        return;
    // A response record — or a fleet record this daemon does not serve
    // — arriving at the server is a peer speaking the protocol
    // backwards; session-fatal like any other protocol violation.
    throw SvcError(ErrorCode::Protocol,
                   util::strprintf("record type %u is not a request "
                                   "this daemon serves",
                                   static_cast<unsigned>(frame.type)));
}

void
Server::dispatchLoop()
{
    while (!stopRequested()) {
        const std::shared_ptr<JobRecord> job = table.takeNext(kTickMs);
        if (!job)
            continue;

        const auto started = std::chrono::steady_clock::now();
        try {
            // Re-derive the plan from the request: planSweep is a pure
            // function, and it already passed at submit time.
            const SweepPlan plan = planSweep(job->request);
            const std::uint64_t fingerprint = planFingerprint(plan);

            // Single-flight dedup: the dispatcher is the only executor,
            // so an identical sweep already finished in this process can
            // be answered from its in-memory record — before the store,
            // which it seeded anyway.
            if (std::optional<std::string> prior =
                    table.reuseDoneResult(fingerprint)) {
                util::MetricsRegistry::global()
                    .counter("svc.cache.dedup")
                    .inc();
                table.markDone(job->id, std::move(*prior));
                continue;
            }
            // Persistent store: a verified hit is the same bytes the
            // sweep would compute (the fingerprint pins every input, the
            // CRC frame pins the bytes); any fault was already degraded
            // to nullopt inside the store.
            if (store) {
                if (std::optional<std::string> cached =
                        store->fetchSweep(fingerprint)) {
                    table.markDone(job->id, std::move(*cached));
                    continue;
                }
            }

            std::string journalPath;
            if (!opts.checkpointDir.empty()) {
                journalPath = util::strprintf(
                    "%s/sweep-%016llx.journal",
                    opts.checkpointDir.c_str(),
                    static_cast<unsigned long long>(fingerprint));
            }
            bool anyFailed = false;
            std::string results = runSweep(
                plan, opts.threads, journalPath, &job->cancel,
                [job](std::size_t, std::size_t, int attempt) {
                    if (attempt == 1)
                        job->cellsStarted.fetch_add(
                            1, std::memory_order_relaxed);
                },
                &anyFailed);
            // Only clean sweeps enter the cache: a row's transient
            // failure must not be replayed to later submissions.
            if (store && !anyFailed)
                store->storeSweep(fingerprint, results);
            table.markDone(job->id, std::move(results));
        } catch (const util::CancelledError &) {
            // Drained cooperatively with the journal flushed: the job
            // is cancelled, not failed, and resumable on resubmit.
            table.markCancelled(job->id);
        } catch (const util::SimError &e) {
            table.markFailed(job->id, e.code(), e.what());
        } catch (const std::exception &e) {
            table.markFailed(job->id, ErrorCode::Internal, e.what());
        }
        recordSweepWall(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - started)
                            .count());
    }
}

StatsSnapshot
Server::buildStats() const
{
    StatsSnapshot s = baseStats();
    if (store) {
        s.cacheBytes = store->blobs().sizeBytes();
        s.cacheEntries = store->blobs().entries();
    }
    return s;
}

} // namespace fo4::svc
