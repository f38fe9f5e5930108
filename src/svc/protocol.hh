/**
 * @file
 * Wire protocol of the sweep service: versioned, CRC-framed,
 * length-prefixed typed records over TCP — the util::Journal framing
 * discipline, pointed at a socket instead of a file.
 *
 * Frame layout (little-endian, mirroring a journal record):
 *
 *     header (8 bytes): u32 payload length | u32 payload CRC32
 *     payload:          u16 protocol version | u16 record type | body
 *
 * Trust model: a frame is either verified or refused, never partially
 * believed.  The corruption matrix maps every kind of damage to a
 * typed SvcError(ErrorCode::Protocol):
 *
 *  - truncated frame: the peer closed inside a header or payload;
 *  - oversize length: a length word beyond kMaxPayloadBytes is refused
 *    *before* any allocation, so a corrupt (or hostile) length cannot
 *    balloon memory;
 *  - bad CRC: payload bytes do not hash to the header's CRC;
 *  - version mismatch: a frame from a protocol this build does not
 *    speak;
 *  - unknown record type: a well-formed frame nobody can interpret.
 *
 * Bodies are line-oriented `key=value` text with doubles rendered in
 * hexfloat (%a) — the serializeSuite discipline — so a request decodes
 * to exactly the doubles it was encoded from, which is what lets the
 * server reproduce a sweep byte-identically.  Free-text fields
 * (benchmark names, error messages, file paths) are escaped so
 * embedded newlines/tabs cannot break the line structure.
 *
 * The Results record's body is deliberately opaque bytes (the canonical
 * sweep rendering, see svc/sweep.hh): length-prefixed framing means it
 * needs no escaping and arrives bit-exact.
 */

#ifndef FO4_SVC_PROTOCOL_HH
#define FO4_SVC_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/profile.hh"
#include "util/durable_file.hh"
#include "util/net.hh"
#include "util/status.hh"

namespace fo4::svc
{

/** Protocol version spoken by this build; mismatches are refused.
 *  v2 added the fleet records (worker registration, heartbeats, cell
 *  leases) and the cells_done progress field of JobStatusInfo.
 *  v3 added the tenant field of SweepRequest (per-tenant admission
 *  quotas) and the cache gauges of StatsSnapshot — decoders are
 *  strict, so new fields force the bump.
 *  v4 added the Monte Carlo fields of SweepRequest (mc_samples,
 *  mc_dist, mc_sigma_* and mc_seed) — omitted from the wire when
 *  mcSamples == 0, so deterministic request bodies stay byte-stable.
 *  v5 added the wait_ms field of Poll (a server-held poll, see
 *  PollRequest) — omitted when 0, so a plain Poll body is the v4 one. */
constexpr std::uint16_t kProtocolVersion = 5;

/** Frame header: u32 payload length + u32 payload CRC — the util
 *  frame codec's head (util/durable_file.hh). */
constexpr std::size_t kFrameHeaderBytes = util::kFrameHeadBytes;

/** Hard payload bound, checked before allocating for a frame. */
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/** Typed wire records.  Requests < 64, responses >= 64. */
enum class MsgType : std::uint16_t
{
    // client -> server
    SubmitSweep = 1, ///< body: SweepRequest::encode()
    Poll = 2,        ///< body: PollRequest::encode()
    FetchResults = 3, ///< body: "id=<n>"
    Cancel = 4,      ///< body: "id=<n>"
    Stats = 5,       ///< body: empty
    Workers = 6,     ///< body: empty (coordinator-only fleet report)

    // worker -> coordinator (v2 fleet records)
    WorkerHello = 16,  ///< body: WorkerHelloInfo::encode()
    LeaseRequest = 17, ///< body: "worker_id=<n>"
    CellDone = 18,     ///< body: CellDoneInfo::encode()
    Heartbeat = 19,    ///< body: "worker_id=<n>"

    // server -> client
    SubmitOk = 64,   ///< body: "id=<n>\ncells_total=<n>"
    JobStatus = 65,  ///< body: JobStatusInfo::encode()
    Results = 66,    ///< body: canonical sweep rendering (opaque bytes)
    CancelOk = 67,   ///< body: JobStatusInfo::encode() (post-cancel)
    StatsReport = 68, ///< body: StatsSnapshot::encode()
    Error = 69,      ///< body: "code=<name>\nmessage=<escaped>"

    // coordinator -> worker / client (v2 fleet records)
    HelloOk = 80,      ///< body: HelloOkInfo::encode()
    CellLease = 81,    ///< body: CellLeaseInfo::encode()
    NoWork = 82,       ///< body: "retry_ms=<n>"
    DoneOk = 83,       ///< body: "accepted=<0|1>"
    HeartbeatOk = 84,  ///< body: "known=<0|1>"
    WorkerReport = 85, ///< body: WorkerSnapshot::encodeList()
};

/** Is this raw type word one this build interprets? */
bool msgTypeKnown(std::uint16_t raw);

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::string body;
};

/** Encode a complete frame (header + payload) ready to write. */
std::string encodeFrame(MsgType type, std::string_view body);

/**
 * Parse and bound-check a frame header.  Throws SvcError(Protocol)
 * when the length word exceeds kMaxPayloadBytes or cannot hold the
 * version/type words.
 */
using FrameHeader = util::FrameHead;
FrameHeader decodeFrameHeader(const unsigned char (&header)[kFrameHeaderBytes]);

/**
 * Verify and decode a payload against its header: CRC, version, record
 * type.  Throws SvcError(Protocol) on any mismatch.
 */
Frame decodePayload(const FrameHeader &header, std::string_view payload);

/**
 * Read one frame from the stream.  Returns nullopt on orderly EOF
 * before the first header byte (the peer hung up between frames);
 * throws SvcError(Protocol) for every corruption-matrix case and
 * SvcError(NetIo) for transport trouble.  `timeoutMs` bounds each
 * poll-for-bytes once a frame has begun.
 */
std::optional<Frame> readFrame(util::TcpStream &stream, int timeoutMs);

/** Encode and write one frame.  `timeoutMs` bounds the socket write
 *  (the per-RPC send deadline); <= 0 waits forever. */
void writeFrame(util::TcpStream &stream, MsgType type,
                std::string_view body, int timeoutMs = -1);

// ---------------------------------------------------------------------
// Body text helpers
// ---------------------------------------------------------------------

/** Escape backslash, newline and tab ("\\", "\n", "\t") so a free-text
 *  field survives line- and tab-structured bodies. */
std::string escapeField(std::string_view text);

/** Inverse of escapeField; throws SvcError(Protocol) on a dangling or
 *  unknown escape. */
std::string unescapeField(std::string_view text);

// ---------------------------------------------------------------------
// Typed request/response payloads
// ---------------------------------------------------------------------

/** One benchmark of a wire sweep: a synthetic SPEC 2000 profile by
 *  name, or a recorded trace file by server-local path. */
struct WireJob
{
    std::string name;
    trace::BenchClass cls = trace::BenchClass::Integer;
    /** False: `name` names a spec2000 profile.  True: replay
     *  `tracePath` (a server-local file). */
    bool fromTrace = false;
    std::string tracePath;
    /** Per-job watchdog budget; 0 inherits the request's. */
    std::uint64_t cycleLimit = 0;
};

/**
 * A complete sweep specification as it crosses the wire: everything
 * study::sweepScaling needs, nothing that could differ between the
 * submitting and executing machine.  The identity guarantee of the
 * service is stated over this struct: running decode(encode(r)) through
 * svc::runSweep produces bytes identical to running `r` directly.
 */
struct SweepRequest
{
    std::string model = "ooo"; ///< "ooo" | "inorder"
    std::string predictor = "tournament";
    std::uint64_t instructions = 80000;
    std::uint64_t warmup = 10000;
    std::uint64_t prewarm = 500000;
    std::uint64_t cycleLimit = 0;
    /** Clocking overhead in FO4 (Table 1 default), hexfloat on wire. */
    double overheadFo4 = 1.8;
    /** The t_useful axis, hexfloat on wire. */
    std::vector<double> tUseful;
    std::vector<WireJob> jobs;
    /**
     * Submitting tenant, for admission quotas ("" = the default
     * tenant).  Omitted from the wire when empty; restricted to
     * [A-Za-z0-9._-], at most 64 chars, so ids are safe inside metric
     * names.  Deliberately *not* part of the grid fingerprint — tenants
     * share cache hits; quotas meter admission, not bytes.
     */
    std::string tenant;

    /**
     * Monte Carlo process variation (protocol v4).  mcSamples == 0 (the
     * default) means a deterministic sweep; the mc_* fields are then
     * omitted from the wire, keeping pre-v4 request bodies byte-stable.
     * mcSamples >= 1 expands the planned grid sample-major (see
     * study::expandMonteCarloGrid); every field below participates in
     * the grid fingerprint through the sampled clocks it produces.
     * Sigmas travel in hexfloat, so workers re-derive bit-identical
     * sampled grids from the request body alone.
     */
    std::uint64_t mcSamples = 0;
    std::string mcDist = "normal"; ///< "normal" | "lognormal"
    double mcSigmaLatch = 0.0;
    double mcSigmaSkew = 0.0;
    double mcSigmaJitter = 0.0;
    double mcSigmaDie = 0.0;
    std::uint64_t mcSeed = 0;

    std::string encode() const;
    /** Throws SvcError(Protocol) on malformed bodies. */
    static SweepRequest decode(std::string_view body);
};

/** Lifecycle of a submitted sweep. */
enum class JobState
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

/** Done, Failed or Cancelled: the job will never change again. */
bool jobStateTerminal(JobState state);

const char *jobStateName(JobState state);
JobState jobStateFromName(const std::string &name); ///< throws Protocol

/** What Poll (and CancelOk) reports about one job. */
struct JobStatusInfo
{
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    /** 1-based position among queued jobs; 0 once dequeued. */
    std::uint64_t queuePosition = 0;
    std::uint64_t cellsTotal = 0;
    /** Cells whose first execution attempt has started this run. */
    std::uint64_t cellsStarted = 0;
    /** Cells whose result is in hand (journaled or merged from a
     *  worker).  v2 field; decode tolerates its absence. */
    std::uint64_t cellsDone = 0;
    /** Why the job failed (state == Failed); Ok otherwise. */
    util::ErrorCode errorCode = util::ErrorCode::Ok;
    std::string errorMessage;

    bool
    terminal() const
    {
        return jobStateTerminal(state);
    }

    std::string encode() const;
    static JobStatusInfo decode(std::string_view body);
};

/** The Stats response: live service gauges plus the engineering-metrics
 *  registry snapshot (counters and the sweep-latency histogram). */
struct StatsSnapshot
{
    std::uint64_t queueDepth = 0;
    std::uint64_t maxQueue = 0;
    /** 1 while the dispatcher is executing a sweep. */
    std::uint64_t runningJobs = 0;
    /** Progress of the running sweep (0/0 when idle). */
    std::uint64_t runningCellsStarted = 0;
    std::uint64_t runningCellsTotal = 0;

    /** Lifetime totals. */
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;

    /** Result-store occupancy (0/0 when no cache_dir= is configured);
     *  v3 fields, decode tolerates their absence. */
    std::uint64_t cacheBytes = 0;
    std::uint64_t cacheEntries = 0;

    /** Sweep wall-time histogram (fixed buckets, see svc/server.cc). */
    std::vector<std::uint64_t> latencyBuckets;
    std::uint64_t latencySamples = 0;
    double latencyMeanMs = 0.0;

    /** Registry counters ("svc.*", "cache.*", ...), sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    std::string encode() const;
    static StatsSnapshot decode(std::string_view body);
};

// ---------------------------------------------------------------------
// Fleet payloads (protocol v2)
// ---------------------------------------------------------------------

/** WorkerHello body: how a worker introduces itself. */
struct WorkerHelloInfo
{
    std::string name;          ///< free text (escaped on the wire)
    std::uint64_t threads = 1; ///< cells the worker runs concurrently

    std::string encode() const;
    static WorkerHelloInfo decode(std::string_view body); ///< throws Protocol
};

/** HelloOk body: the coordinator's side of the registration contract. */
struct HelloOkInfo
{
    std::uint64_t workerId = 0;
    /** How often the worker must heartbeat. */
    std::uint64_t heartbeatMs = 0;
    /** How long a granted cell may run before its lease expires. */
    std::uint64_t leaseTimeoutMs = 0;

    std::string encode() const;
    static HelloOkInfo decode(std::string_view body); ///< throws Protocol
};

/** CellLease body: one grid cell granted to a worker.  The request is
 *  the full SweepRequest encoding so a worker needs no prior state —
 *  it plans the same grid the coordinator did (same fingerprint) and
 *  runs exactly one (point, job) cell of it. */
struct CellLeaseInfo
{
    std::uint64_t sweep = 0; ///< gridFingerprint of the planned sweep
    std::uint64_t point = 0;
    std::uint64_t job = 0;
    std::string requestBody; ///< SweepRequest::encode() (escaped on wire)

    std::string encode() const;
    static CellLeaseInfo decode(std::string_view body); ///< throws Protocol
};

/** CellDone body: a finished cell travelling back to the coordinator.
 *  The payload is the binary checkpoint cell record (study::CellRecord)
 *  — the same bytes a journal stores — escaped for the line body. */
struct CellDoneInfo
{
    std::uint64_t workerId = 0;
    std::uint64_t sweep = 0;
    std::uint64_t point = 0;
    std::uint64_t job = 0;
    std::string cellPayload; ///< encodeCellRecord() bytes (escaped on wire)

    std::string encode() const;
    static CellDoneInfo decode(std::string_view body); ///< throws Protocol
};

/** Failure-detector verdicts for a registered worker. */
enum class WorkerState
{
    Live,    ///< heartbeating within suspectAfterMs
    Suspect, ///< missed heartbeats; leases still honoured
    Dead,    ///< declared dead; leases reclaimed and re-dispatched
};

const char *workerStateName(WorkerState state);
WorkerState workerStateFromName(const std::string &name); ///< throws Protocol

/** One row of the WorkerReport response. */
struct WorkerSnapshot
{
    std::uint64_t id = 0;
    std::string name;
    WorkerState state = WorkerState::Live;
    std::uint64_t activeLeases = 0;
    std::uint64_t cellsCompleted = 0;
    /** Milliseconds since the last frame from this worker. */
    std::uint64_t heartbeatAgeMs = 0;

    /** Tab-separated line list, one worker per line. */
    static std::string encodeList(const std::vector<WorkerSnapshot> &rows);
    static std::vector<WorkerSnapshot>
    decodeList(std::string_view body); ///< throws Protocol
};

/** Encode/decode the one-field "worker_id=<n>" bodies (LeaseRequest,
 *  Heartbeat). */
std::string encodeWorkerId(std::uint64_t id);
std::uint64_t decodeWorkerId(std::string_view body); ///< throws Protocol

/** NoWork body: how long an idle worker should wait before re-asking. */
std::string encodeRetryMs(std::uint64_t retryMs);
std::uint64_t decodeRetryMs(std::string_view body); ///< throws Protocol

/** DoneOk body: did the coordinator accept the cell (false: duplicate
 *  of an already-merged completion, or no longer wanted)? */
std::string encodeAccepted(bool accepted);
bool decodeAccepted(std::string_view body); ///< throws Protocol

/** HeartbeatOk body: does the coordinator know this worker id (false:
 *  the worker was declared dead and must re-register)? */
std::string encodeKnown(bool known);
bool decodeKnown(std::string_view body); ///< throws Protocol

/** Encode/decode the Error record body. */
std::string encodeError(util::ErrorCode code, std::string_view message);
/** Returns (code, message); throws Protocol on a malformed body. */
std::pair<util::ErrorCode, std::string> decodeError(std::string_view body);

/** Encode/decode the one-field "id=<n>" request bodies. */
std::string encodeId(std::uint64_t id);
std::uint64_t decodeId(std::string_view body); ///< throws Protocol

/** Longest hold a Poll may ask for, ms.  Below every sane client read
 *  deadline (Client::Options::ioTimeoutMs defaults to 30 s), so a held
 *  poll never looks like a dead server. */
constexpr std::uint64_t kMaxPollWaitMs = 10000;

/**
 * Poll body (protocol v5): "id=<n>" plus an optional "wait_ms=<n>".
 * With waitMs > 0 the server holds its JobStatus reply until the job
 * is terminal, the hold runs out, or the server stops — whichever is
 * first.  waitMs == 0 is a plain snapshot and leaves the field off the
 * wire, so its body is byte-identical to encodeId(id).
 */
struct PollRequest
{
    std::uint64_t id = 0;
    std::uint64_t waitMs = 0;

    std::string encode() const;
    /** Throws SvcError(Protocol) on a malformed body and
     *  SvcError(InvalidConfig) for a wait_ms above kMaxPollWaitMs. */
    static PollRequest decode(std::string_view body);
};

/** SubmitOk body. */
std::string encodeSubmitOk(std::uint64_t id, std::uint64_t cellsTotal);
std::pair<std::uint64_t, std::uint64_t>
decodeSubmitOk(std::string_view body); ///< throws Protocol

} // namespace fo4::svc

#endif // FO4_SVC_PROTOCOL_HH
