/**
 * @file
 * The daemon's job table: a bounded FIFO of submitted sweeps plus the
 * lifecycle state of every job the process has seen.
 *
 * Admission control: the queue is bounded (ServerOptions::maxQueue).  A
 * submit that would exceed the bound is refused *synchronously* with
 * SvcError(ErrorCode::Overloaded) — backpressure is a typed error the
 * client sees immediately, never a silently growing queue that turns
 * into an OOM kill an hour later.
 *
 * Cancellation semantics (the contract DESIGN.md §10 states):
 *
 *  - a *queued* job is removed from the queue and marked Cancelled —
 *    it never starts;
 *  - a *running* job gets its CancelToken flipped; the sweep drains
 *    cooperatively (journal flushed, resumable) and the dispatcher
 *    marks it Cancelled when CancelledError surfaces;
 *  - a *terminal* job is left alone — cancel is idempotent and always
 *    answers with the job's current status.
 *
 * Threading: one mutex guards the table and queue; `settled` wakes
 * held status() calls on terminal transitions; per-job progress
 * (cellsStarted) is a relaxed atomic bumped from worker threads via the
 * runner's onAttempt hook, read without the lock.
 */

#ifndef FO4_SVC_QUEUE_HH
#define FO4_SVC_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "svc/protocol.hh"
#include "util/cancel.hh"

namespace fo4::svc
{

/** One submitted sweep's full lifecycle state. */
struct JobRecord
{
    std::uint64_t id = 0;
    SweepRequest request;
    JobState state = JobState::Queued;
    std::uint64_t cellsTotal = 0;
    /** gridFingerprint of the planned sweep (0 if never planned) — the
     *  key for in-memory dedup and the persistent result store. */
    std::uint64_t fingerprint = 0;
    /** Cells whose first attempt has started this run (worker threads
     *  bump this through the onAttempt hook; read lock-free). */
    std::atomic<std::uint64_t> cellsStarted{0};
    /** Cells whose result is in hand — the coordinator bumps this as
     *  worker completions merge; markDone pins it to cellsTotal. */
    std::atomic<std::uint64_t> cellsDone{0};
    /** Canonical result bytes once state == Done. */
    std::string results;
    /** Failure verdict once state == Failed. */
    util::ErrorCode errorCode = util::ErrorCode::Ok;
    std::string errorMessage;
    /** Per-job cancellation source, shared with the running sweep. */
    util::CancelToken cancel;
};

/**
 * Thread-safe table of jobs keyed by id, with a bounded submission
 * queue feeding the dispatcher.
 */
class JobTable
{
  public:
    /**
     * `tenantQuota` bounds how many sweeps one tenant may have *queued*
     * at once (0 = unlimited); the overall `maxQueue` bound still
     * applies on top.  Quota exhaustion is the same typed Overloaded
     * refusal as a full queue, with a distinct detail naming the tenant
     * — so a greedy tenant backs off while others keep submitting.
     */
    explicit JobTable(std::size_t maxQueue, std::size_t tenantQuota = 0);

    /**
     * Admit a validated request.  Returns the new job id; throws
     * SvcError(Overloaded) when the queue is full or the submitting
     * tenant's quota is exhausted (the record is not created — a
     * rejected submit leaves no trace but counters:
     * svc.shed.{queue_full,tenant_quota} and
     * svc.tenant.<tenant>.{submitted,rejected}).
     */
    std::uint64_t submit(SweepRequest request, std::uint64_t cellsTotal,
                         std::uint64_t fingerprint = 0);

    /**
     * The result bytes of an already-Done job with this fingerprint, if
     * any — the in-memory single-flight dedup the dispatcher consults
     * before touching the persistent store.  Fingerprint 0 never
     * matches.
     */
    std::optional<std::string>
    reuseDoneResult(std::uint64_t fingerprint) const;

    /**
     * Dequeue the oldest queued job, waiting up to `timeoutMs` for one
     * to arrive.  Returns nullopt on timeout or shutdown — the
     * dispatcher's cancel-poll tick.  The job is marked Running.
     */
    std::shared_ptr<JobRecord> takeNext(int timeoutMs);

    /** Record a terminal verdict (dispatcher only). */
    void markDone(std::uint64_t id, std::string results);
    void markFailed(std::uint64_t id, util::ErrorCode code,
                    std::string message);
    void markCancelled(std::uint64_t id);

    /**
     * Cancel a job (see file comment for semantics).  Returns the
     * post-cancel status; throws SvcError(NotFound) for unknown ids.
     */
    JobStatusInfo cancelJob(std::uint64_t id);

    /**
     * Status snapshot; throws SvcError(NotFound) for unknown ids.  With
     * `waitMs` > 0 the snapshot is taken once the job is terminal, the
     * table shuts down, or `waitMs` runs out, whichever is first — the
     * server-held Poll.  Every terminal transition (markDone,
     * markFailed, markCancelled, cancelJob of a queued job) and
     * shutdown() wakes the waiters.
     */
    JobStatusInfo status(std::uint64_t id, std::uint64_t waitMs = 0) const;

    /**
     * The result bytes of a Done job; throws SvcError(NotFound) for
     * unknown ids, SvcError(NotReady) while Queued/Running, and the
     * job's own failure (or Cancelled) as SvcError once terminal.
     */
    std::string fetchResults(std::uint64_t id) const;

    /** Mark every still-queued job Cancelled (shutdown drain) and wake
     *  the dispatcher; takeNext returns nullopt from now on. */
    void shutdown();

    std::size_t queueDepth() const;
    std::size_t maxQueue() const { return bound; }
    std::size_t tenantQuota() const { return quota; }

    /** Lifetime totals for the Stats record. */
    std::uint64_t submitted() const { return nSubmitted.load(); }
    std::uint64_t rejected() const { return nRejected.load(); }
    std::uint64_t completed() const { return nCompleted.load(); }
    std::uint64_t failed() const { return nFailed.load(); }
    std::uint64_t cancelled() const { return nCancelled.load(); }

    /** The running job, if any (for Stats progress gauges). */
    std::shared_ptr<JobRecord> runningJob() const;

  private:
    JobStatusInfo statusLocked(const JobRecord &record,
                               std::uint64_t queuePosition) const;
    std::uint64_t queuePositionLocked(std::uint64_t id) const;
    /** A queued job left the queue: release its tenant quota slot. */
    void dropQueuedTenantLocked(const JobRecord &record);

    const std::size_t bound;
    const std::size_t quota;
    mutable std::mutex mutex;
    std::condition_variable cv;
    /** Notified (all) on every terminal transition and on shutdown. */
    mutable std::condition_variable settled;
    bool stopping = false;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, std::shared_ptr<JobRecord>> jobs;
    std::deque<std::uint64_t> queue;
    std::shared_ptr<JobRecord> running;
    /** Queued (not running) jobs per tenant, for quota admission. */
    std::map<std::string, std::size_t> queuedByTenant;

    std::atomic<std::uint64_t> nSubmitted{0};
    std::atomic<std::uint64_t> nRejected{0};
    std::atomic<std::uint64_t> nCompleted{0};
    std::atomic<std::uint64_t> nFailed{0};
    std::atomic<std::uint64_t> nCancelled{0};
};

} // namespace fo4::svc

#endif // FO4_SVC_QUEUE_HH
