#include "svc/queue.hh"

#include <algorithm>
#include <chrono>

#include "util/logging.hh"
#include "util/metrics.hh"

namespace fo4::svc
{

using util::ErrorCode;
using util::SvcError;

namespace
{

/** Tenant name used for accounting when the request carries none. */
const std::string &
tenantOf(const SweepRequest &request)
{
    static const std::string kDefault = "default";
    return request.tenant.empty() ? kDefault : request.tenant;
}

void
bumpTenantCounter(const std::string &tenant, const char *what)
{
    util::MetricsRegistry::global()
        .counter("svc.tenant." + tenant + "." + what)
        .inc();
}

} // namespace

JobTable::JobTable(std::size_t maxQueue, std::size_t tenantQuota)
    : bound(maxQueue), quota(tenantQuota)
{
    FO4_ASSERT(bound >= 1, "job queue bound must be >= 1");
}

std::uint64_t
JobTable::submit(SweepRequest request, std::uint64_t cellsTotal,
                 std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex);
    const std::string tenant = tenantOf(request);
    if (stopping || queue.size() >= bound) {
        nRejected.fetch_add(1);
        util::MetricsRegistry::global()
            .counter("svc.shed.queue_full")
            .inc();
        bumpTenantCounter(tenant, "rejected");
        throw SvcError(
            ErrorCode::Overloaded,
            stopping
                ? "service is draining for shutdown"
                : util::strprintf("queue is full (%zu queued, bound %zu)"
                                  " — retry after a job finishes",
                                  queue.size(), bound));
    }
    if (quota != 0) {
        const auto it = queuedByTenant.find(tenant);
        const std::size_t queued =
            it == queuedByTenant.end() ? 0 : it->second;
        if (queued >= quota) {
            nRejected.fetch_add(1);
            util::MetricsRegistry::global()
                .counter("svc.shed.tenant_quota")
                .inc();
            bumpTenantCounter(tenant, "rejected");
            throw SvcError(
                ErrorCode::Overloaded,
                util::strprintf("tenant '%s' already has %zu queued "
                                "sweep%s (per-tenant quota %zu) — retry "
                                "after one starts",
                                tenant.c_str(), queued,
                                queued == 1 ? "" : "s", quota));
        }
    }
    auto record = std::make_shared<JobRecord>();
    record->id = nextId++;
    record->request = std::move(request);
    record->cellsTotal = cellsTotal;
    record->fingerprint = fingerprint;
    jobs.emplace(record->id, record);
    queue.push_back(record->id);
    ++queuedByTenant[tenant];
    nSubmitted.fetch_add(1);
    bumpTenantCounter(tenant, "submitted");
    cv.notify_one();
    return record->id;
}

std::optional<std::string>
JobTable::reuseDoneResult(std::uint64_t fingerprint) const
{
    if (fingerprint == 0)
        return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex);
    // Newest first: later Done jobs are more likely still interesting.
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
        const JobRecord &record = *it->second;
        if (record.state == JobState::Done &&
            record.fingerprint == fingerprint)
            return record.results;
    }
    return std::nullopt;
}

std::shared_ptr<JobRecord>
JobTable::takeNext(int timeoutMs)
{
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                [this] { return stopping || !queue.empty(); });
    if (stopping || queue.empty())
        return nullptr;
    const std::uint64_t id = queue.front();
    queue.pop_front();
    auto record = jobs.at(id);
    dropQueuedTenantLocked(*record);
    record->state = JobState::Running;
    running = record;
    return record;
}

void
JobTable::dropQueuedTenantLocked(const JobRecord &record)
{
    const auto it = queuedByTenant.find(tenantOf(record.request));
    if (it != queuedByTenant.end() && --it->second == 0)
        queuedByTenant.erase(it);
}

void
JobTable::markDone(std::uint64_t id, std::string results)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto record = jobs.at(id);
    record->state = JobState::Done;
    record->results = std::move(results);
    record->cellsDone.store(record->cellsTotal);
    if (running && running->id == id)
        running = nullptr;
    nCompleted.fetch_add(1);
    settled.notify_all();
}

void
JobTable::markFailed(std::uint64_t id, util::ErrorCode code,
                     std::string message)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto record = jobs.at(id);
    record->state = JobState::Failed;
    record->errorCode = code;
    record->errorMessage = std::move(message);
    if (running && running->id == id)
        running = nullptr;
    nFailed.fetch_add(1);
    settled.notify_all();
}

void
JobTable::markCancelled(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto record = jobs.at(id);
    record->state = JobState::Cancelled;
    if (running && running->id == id)
        running = nullptr;
    nCancelled.fetch_add(1);
    settled.notify_all();
}

JobStatusInfo
JobTable::cancelJob(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
        throw SvcError(ErrorCode::NotFound,
                       util::strprintf("no job with id %llu",
                                       static_cast<unsigned long long>(
                                           id)));
    }
    auto record = it->second;
    switch (record->state) {
      case JobState::Queued:
        // Never starts: drop it from the queue and settle it here.
        queue.erase(std::remove(queue.begin(), queue.end(), id),
                    queue.end());
        dropQueuedTenantLocked(*record);
        record->state = JobState::Cancelled;
        nCancelled.fetch_add(1);
        settled.notify_all();
        break;
      case JobState::Running:
        // Cooperative: the sweep observes the token at its next cell
        // boundary / watchdog check, flushes its journal and raises
        // CancelledError; the dispatcher then marks it Cancelled.
        record->cancel.requestCancel();
        break;
      case JobState::Done:
      case JobState::Failed:
      case JobState::Cancelled:
        break; // idempotent on terminal jobs
    }
    return statusLocked(*record, queuePositionLocked(id));
}

JobStatusInfo
JobTable::status(std::uint64_t id, std::uint64_t waitMs) const
{
    std::unique_lock<std::mutex> lock(mutex);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
        throw SvcError(ErrorCode::NotFound,
                       util::strprintf("no job with id %llu",
                                       static_cast<unsigned long long>(
                                           id)));
    }
    const std::shared_ptr<JobRecord> record = it->second;
    if (waitMs != 0) {
        settled.wait_for(lock, std::chrono::milliseconds(waitMs), [&] {
            return stopping || jobStateTerminal(record->state);
        });
    }
    return statusLocked(*record, queuePositionLocked(id));
}

std::string
JobTable::fetchResults(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = jobs.find(id);
    if (it == jobs.end()) {
        throw SvcError(ErrorCode::NotFound,
                       util::strprintf("no job with id %llu",
                                       static_cast<unsigned long long>(
                                           id)));
    }
    const JobRecord &record = *it->second;
    switch (record.state) {
      case JobState::Done:
        return record.results;
      case JobState::Queued:
      case JobState::Running:
        throw SvcError(ErrorCode::NotReady,
                       util::strprintf(
                           "job %llu is still %s — poll until terminal",
                           static_cast<unsigned long long>(id),
                           jobStateName(record.state)));
      case JobState::Failed:
        throw SvcError(record.errorCode, record.errorMessage);
      case JobState::Cancelled:
        throw SvcError(ErrorCode::Cancelled,
                       util::strprintf("job %llu was cancelled",
                                       static_cast<unsigned long long>(
                                           id)));
    }
    throw SvcError(ErrorCode::Internal, "unreachable job state");
}

void
JobTable::shutdown()
{
    std::lock_guard<std::mutex> lock(mutex);
    stopping = true;
    for (const std::uint64_t id : queue) {
        jobs.at(id)->state = JobState::Cancelled;
        nCancelled.fetch_add(1);
    }
    queue.clear();
    queuedByTenant.clear();
    if (running)
        running->cancel.requestCancel();
    cv.notify_all();
    settled.notify_all();
}

std::size_t
JobTable::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return queue.size();
}

std::shared_ptr<JobRecord>
JobTable::runningJob() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return running;
}

JobStatusInfo
JobTable::statusLocked(const JobRecord &record,
                       std::uint64_t queuePosition) const
{
    JobStatusInfo info;
    info.id = record.id;
    info.state = record.state;
    info.queuePosition = queuePosition;
    info.cellsTotal = record.cellsTotal;
    info.cellsStarted = record.cellsStarted.load();
    info.cellsDone = record.cellsDone.load();
    info.errorCode = record.errorCode;
    info.errorMessage = record.errorMessage;
    return info;
}

std::uint64_t
JobTable::queuePositionLocked(std::uint64_t id) const
{
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i] == id)
            return i + 1;
    }
    return 0;
}

} // namespace fo4::svc
