/**
 * @file
 * Shared scaffolding of every daemon in the sweep service: a TCP
 * listener, one session thread per connection, a stop/join lifecycle,
 * and the client-facing record handlers (submit, held poll, fetch,
 * cancel, stats) over a JobTable.
 *
 * Both the single-machine daemon (svc::Server) and the fleet
 * coordinator (svc::Coordinator) are SessionServers: a coordinator
 * speaks the *same* client protocol as a daemon — fo4ctl cannot tell
 * them apart — and adds the fleet records on top.  The derived class
 * supplies handleFrame(); frames the shared handler does not recognise
 * fall through to it.
 *
 * Fault containment (inherited by every derived daemon): a malformed
 * or corrupt frame costs its *session* — the peer gets a typed Error
 * frame while the transport still works, then the connection closes —
 * never the process.
 *
 * Construction order contract: the base constructor binds the listener
 * but does NOT start accepting; the derived constructor must call
 * startAccepting() as its last statement, after every member the
 * session threads may touch is initialised (virtual dispatch from a
 * thread racing a half-built object is the bug this avoids).
 */

#ifndef FO4_SVC_SESSION_SERVER_HH
#define FO4_SVC_SESSION_SERVER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/queue.hh"
#include "util/net.hh"

namespace fo4::svc
{

/** Base of Server and Coordinator; see the file comment. */
class SessionServer
{
  public:
    virtual ~SessionServer();

    SessionServer(const SessionServer &) = delete;
    SessionServer &operator=(const SessionServer &) = delete;

    /** The bound port (resolves an ephemeral request). */
    std::uint16_t port() const { return listener.port(); }

    /** Stop accepting and wake every loop.  Idempotent.  Derived
     *  classes extend this to drain their own threads. */
    virtual void stop();

    /** Wait for the accept and session threads; call after stop().
     *  Derived classes join their own threads on top. */
    void join();

  protected:
    /** Binds (but does not serve) 127.0.0.1:port; 0 = ephemeral.
     *  `tenantQuota` bounds queued sweeps per tenant (0 = unlimited). */
    SessionServer(std::uint16_t port, std::size_t maxQueue,
                  std::size_t tenantQuota = 0);

    /** Launch the accept loop.  MUST be the last statement of the
     *  derived constructor. */
    void startAccepting();

    bool stopRequested() const { return stopping.load(); }

    /** How often blocked loops wake to check the stop flag, ms. */
    static constexpr int kTickMs = 100;

    /** Per-read/write timeout once a frame is in flight, ms — the
     *  per-RPC deadline that keeps a black-holed peer from wedging a
     *  session thread. */
    static constexpr int kFrameTimeoutMs = 10000;

    /**
     * Serve one request frame.  Implementations should try
     * handleClientFrame() first and treat an unhandled frame as a
     * protocol violation (throw SvcError(Protocol) — session-fatal).
     */
    virtual void handleFrame(util::TcpStream &stream,
                             const Frame &frame) = 0;

    /**
     * The client-protocol records every daemon answers: SubmitSweep
     * (validated eagerly via planSweep), Poll (held up to its wait_ms
     * for the job to turn terminal; stop() wakes it), FetchResults,
     * Cancel, Stats.  Returns false when `frame` is none of them.
     * Expected per-request failures (NotFound, NotReady, Overloaded, a
     * refused request or wait_ms) are answered with an Error frame;
     * Protocol errors propagate — they are session-fatal by the trust
     * model.
     */
    bool handleClientFrame(util::TcpStream &stream, const Frame &frame);

    /** The Stats record's payload; derived classes add their gauges. */
    virtual StatsSnapshot buildStats() const = 0;

    /** The Stats fields every daemon shares: queue and running gauges,
     *  lifetime totals, sweep latency (histogram and true mean) and the
     *  registry counters. */
    StatsSnapshot baseStats() const;

    /** Record one dequeued sweep's wall time: the "svc.sweep_wall_ms"
     *  log2 histogram plus the "svc.sweep_wall_us" running sum. */
    static void recordSweepWall(double wallMs);

    /** The job table every daemon serves clients from. */
    JobTable table;

  private:
    void acceptLoop();
    void sessionLoop(util::TcpStream stream);

    util::TcpListener listener;
    std::atomic<bool> stopping{false};
    std::thread acceptThread;
    std::mutex sessionMutex;
    std::vector<std::thread> sessions;
};

} // namespace fo4::svc

#endif // FO4_SVC_SESSION_SERVER_HH
