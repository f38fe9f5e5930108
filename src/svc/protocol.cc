#include "svc/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/durable_file.hh"
#include "util/logging.hh"

namespace fo4::svc
{

namespace
{

using util::ErrorCode;
using util::getU16;
using util::SvcError;

[[noreturn]] void
throwProtocol(const std::string &what)
{
    throw SvcError(ErrorCode::Protocol, "wire protocol: " + what);
}

/** "<key>: '<text>' is not <expected>". */
[[noreturn]] void
throwBadValue(std::string_view key, std::string_view text,
              const char *expected)
{
    throwProtocol(util::strprintf(
        "%.*s: '%.*s' is not %s", static_cast<int>(key.size()), key.data(),
        static_cast<int>(text.size()), text.data(), expected));
}

} // namespace

bool
msgTypeKnown(std::uint16_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::SubmitSweep:
      case MsgType::Poll:
      case MsgType::FetchResults:
      case MsgType::Cancel:
      case MsgType::Stats:
      case MsgType::Workers:
      case MsgType::WorkerHello:
      case MsgType::LeaseRequest:
      case MsgType::CellDone:
      case MsgType::Heartbeat:
      case MsgType::SubmitOk:
      case MsgType::JobStatus:
      case MsgType::Results:
      case MsgType::CancelOk:
      case MsgType::StatsReport:
      case MsgType::Error:
      case MsgType::HelloOk:
      case MsgType::CellLease:
      case MsgType::NoWork:
      case MsgType::DoneOk:
      case MsgType::HeartbeatOk:
      case MsgType::WorkerReport:
        return true;
    }
    return false;
}

std::string
encodeFrame(MsgType type, std::string_view body)
{
    FO4_ASSERT(body.size() + 4 <= kMaxPayloadBytes,
               "frame body too large (%zu bytes)", body.size());
    std::string frame(kFrameHeaderBytes + 4, '\0');
    auto *words =
        reinterpret_cast<unsigned char *>(frame.data()) + kFrameHeaderBytes;
    util::putU16(words, kProtocolVersion);
    util::putU16(words + 2, static_cast<std::uint16_t>(type));
    frame.append(body);
    util::sealFrame(frame);
    return frame;
}

FrameHeader
decodeFrameHeader(const unsigned char (&header)[kFrameHeaderBytes])
{
    const FrameHeader h = util::decodeFrameHead(header);
    // Bound-check before anyone allocates: a corrupt length word must
    // cost a typed error, not a 4 GiB allocation.
    if (h.length > kMaxPayloadBytes) {
        throwProtocol(util::strprintf(
            "oversize frame: length word %u exceeds the %u-byte limit",
            h.length, kMaxPayloadBytes));
    }
    if (h.length < 4) {
        throwProtocol(util::strprintf(
            "runt frame: %u-byte payload cannot hold version and type",
            h.length));
    }
    return h;
}

Frame
decodePayload(const FrameHeader &header, std::string_view payload)
{
    if (payload.size() != header.length) {
        throwProtocol(util::strprintf(
            "payload size %zu does not match the header's %u",
            payload.size(), header.length));
    }
    if (const std::uint32_t computed =
            util::crc32(payload.data(), payload.size());
        computed != header.crc) {
        throwProtocol(util::strprintf(
            "payload CRC mismatch (stored %08x, computed %08x)",
            header.crc, computed));
    }
    const auto *words =
        reinterpret_cast<const unsigned char *>(payload.data());
    if (const std::uint16_t version = getU16(words);
        version != kProtocolVersion) {
        throwProtocol(util::strprintf(
            "protocol version %u, this build speaks %u", version,
            kProtocolVersion));
    }
    const std::uint16_t rawType = getU16(words + 2);
    if (!msgTypeKnown(rawType))
        throwProtocol(util::strprintf("unknown record type %u", rawType));

    Frame frame;
    frame.type = static_cast<MsgType>(rawType);
    frame.body.assign(payload.substr(4));
    return frame;
}

std::optional<Frame>
readFrame(util::TcpStream &stream, int timeoutMs)
{
    unsigned char header[kFrameHeaderBytes];
    if (!stream.readExact(header, sizeof(header), timeoutMs))
        return std::nullopt; // orderly EOF between frames
    const FrameHeader h = decodeFrameHeader(header);
    std::string payload;
    payload.resize(h.length);
    if (!stream.readExact(payload.data(), payload.size(), timeoutMs)) {
        throwProtocol(util::strprintf(
            "truncated frame: peer closed before %u payload bytes",
            h.length));
    }
    return decodePayload(h, payload);
}

void
writeFrame(util::TcpStream &stream, MsgType type, std::string_view body,
           int timeoutMs)
{
    const std::string frame = encodeFrame(type, body);
    stream.writeAll(frame.data(), frame.size(), timeoutMs);
}

std::string
escapeField(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
unescapeField(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\') {
            out += text[i];
            continue;
        }
        if (i + 1 >= text.size())
            throwProtocol("dangling escape at end of field");
        switch (text[++i]) {
          case '\\':
            out += '\\';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            throwProtocol(util::strprintf("unknown escape '\\%c'",
                                          text[i]));
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Typed bodies: each message is one static field table; one walker
// encodes every table and one decodes it.
// ---------------------------------------------------------------------

namespace
{

constexpr const char *kJobStateNames[] = {"Queued", "Running", "Done",
                                          "Failed", "Cancelled"};
constexpr const char *kWorkerStateNames[] = {"Live", "Suspect", "Dead"};

template <class E, std::size_t N>
const char *
nameOf(const char *const (&names)[N], E value)
{
    const auto i = static_cast<std::size_t>(value);
    return i < N ? names[i] : "Unknown";
}

template <class E, std::size_t N>
E
valueOf(const char *const (&names)[N], std::string_view name,
        const char *what)
{
    for (std::size_t i = 0; i < N; ++i) {
        if (name == names[i])
            return static_cast<E>(i);
    }
    throwProtocol(util::strprintf("unknown %s '%.*s'", what,
                                  static_cast<int>(name.size()),
                                  name.data()));
}

template <class T>
constexpr bool kIsPair = false;
template <class A, class B>
constexpr bool kIsPair<std::pair<A, B>> = true;

template <class T>
void putValue(std::string &out, const T &v);
template <class T>
void getValue(std::string_view text, std::string_view key, T &v);

/** Tab-separated columns, one value each. */
template <class... T>
void
putRecord(std::string &out, const T &...columns)
{
    std::size_t i = 0;
    ((out += i++ ? "\t" : "", putValue(out, columns)), ...);
}

template <class... T>
void
getRecord(std::string_view text, std::string_view key, T &...columns)
{
    if (std::count(text.begin(), text.end(), '\t') + 1 != sizeof...(T))
        throwBadValue(key, text, "a record of the right width");
    std::size_t start = 0;
    const auto column = [&] {
        const auto tab = std::min(text.find('\t', start), text.size());
        const auto col = text.substr(start, tab - start);
        start = tab + 1;
        return col;
    };
    (getValue(column(), key, columns), ...);
}

/** The text of one value: a scalar, a named enum, an escaped string, a
 *  space-separated list of scalars, or one tab-separated record. */
template <class T>
void
putValue(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[40]; // "%a" of any double fits in 24 bytes
        const int n = std::snprintf(buf, sizeof(buf), "%a", v);
        out.append(buf, static_cast<std::size_t>(n));
    } else if constexpr (std::is_same_v<T, bool>) {
        out += v ? '1' : '0';
    } else if constexpr (std::is_same_v<T, std::string>) {
        out += escapeField(v);
    } else if constexpr (std::is_same_v<T, JobState>) {
        out += nameOf(kJobStateNames, v);
    } else if constexpr (std::is_same_v<T, WorkerState>) {
        out += nameOf(kWorkerStateNames, v);
    } else if constexpr (std::is_same_v<T, ErrorCode>) {
        out += util::errorCodeName(v);
    } else if constexpr (std::is_same_v<T, WireJob>) {
        out += v.fromTrace ? "trace\t" : "profile\t";
        putRecord(out, static_cast<std::uint64_t>(v.cls), v.cycleLimit,
                  v.name);
        if (v.fromTrace) {
            out += '\t';
            putValue(out, v.tracePath);
        }
    } else if constexpr (std::is_same_v<T, WorkerSnapshot>) {
        putRecord(out, v.id, v.name, v.state, v.activeLeases,
                  v.cellsCompleted, v.heartbeatAgeMs);
    } else if constexpr (kIsPair<T>) {
        putRecord(out, v.first, v.second);
    } else {
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ' ';
            putValue(out, v[i]);
        }
    }
}

/** Inverse of putValue; a list appends, so a repeated key extends it. */
template <class T>
void
getValue(std::string_view text, std::string_view key, T &v)
{
    if constexpr (std::is_same_v<T, std::uint64_t> ||
                  std::is_same_v<T, bool>) {
        const std::string copy(text);
        char *end = nullptr;
        errno = 0;
        const unsigned long long n = std::strtoull(copy.c_str(), &end, 10);
        if (end == copy.c_str() || *end != '\0' || errno != 0 ||
            copy.find('-') != std::string::npos)
            throwBadValue(key, text, "an unsigned integer");
        if (std::is_same_v<T, bool> && n > 1)
            throwBadValue(key, text, "0 or 1");
        v = static_cast<T>(n);
    } else if constexpr (std::is_same_v<T, double>) {
        const std::string copy(text);
        char *end = nullptr;
        v = std::strtod(copy.c_str(), &end);
        if (end == copy.c_str() || *end != '\0')
            throwBadValue(key, text, "a number");
    } else if constexpr (std::is_same_v<T, std::string>) {
        v = unescapeField(text);
    } else if constexpr (std::is_same_v<T, JobState>) {
        v = valueOf<JobState>(kJobStateNames, text, "job state");
    } else if constexpr (std::is_same_v<T, WorkerState>) {
        v = valueOf<WorkerState>(kWorkerStateNames, text, "worker state");
    } else if constexpr (std::is_same_v<T, ErrorCode>) {
        // An unknown name degrades to Internal, staying typed.
        v = util::errorCodeFromName(std::string(text));
    } else if constexpr (std::is_same_v<T, WireJob>) {
        const auto kind = text.substr(0, text.find('\t'));
        v.fromTrace = kind == "trace";
        if (!v.fromTrace && kind != "profile")
            throwBadValue(key, kind, "'profile' or 'trace'");
        const auto rest = text.substr(std::min(kind.size() + 1, text.size()));
        std::uint64_t cls = 0;
        if (v.fromTrace)
            getRecord(rest, key, cls, v.cycleLimit, v.name, v.tracePath);
        else
            getRecord(rest, key, cls, v.cycleLimit, v.name);
        if (cls > static_cast<std::uint64_t>(trace::BenchClass::NonVectorFp))
            throwBadValue(key, text, "a known benchmark class");
        v.cls = static_cast<trace::BenchClass>(cls);
        if (v.name.empty())
            throwProtocol("job name is empty");
    } else if constexpr (std::is_same_v<T, WorkerSnapshot>) {
        getRecord(text, key, v.id, v.name, v.state, v.activeLeases,
                  v.cellsCompleted, v.heartbeatAgeMs);
    } else if constexpr (kIsPair<T>) {
        getRecord(text, key, v.first, v.second);
    } else {
        for (std::size_t start = 0; start < text.size();) {
            const auto space = std::min(text.find(' ', start), text.size());
            if (space > start)
                getValue(text.substr(start, space - start), key,
                         v.emplace_back());
            start = space + 1;
        }
    }
}

enum : unsigned
{
    kRequired = 1u << 0,  ///< decode refuses a body without the key
    kRaw = 1u << 1,       ///< a name, not free text: travels unescaped
    kCheckLast = 1u << 2, ///< `check` runs once, after the walk, on the
                          ///< final value
};

/**
 * One row of a body table: "key=value\n", or one such line per element
 * for a vector of records.  Rows encode in table order.  `omit` leaves
 * the field off the wire; `check` refuses a decoded value, by default
 * at every occurrence of the key.
 */
template <class Msg>
struct Field
{
    std::string_view key;
    void (*put)(std::string &out, const Field &f, const Msg &msg);
    void (*get)(Msg &msg, const Field &f, std::string_view value);
    unsigned flags;
    bool (*omit)(const Msg &msg);
    void (*check)(const Msg &msg);
};

template <class M>
struct MemberOf;
template <class C, class V>
struct MemberOf<V C::*>
{
    using Owner = C;
    using Value = V;
};
template <auto M>
using Owner = typename MemberOf<decltype(M)>::Owner;
template <auto M>
using Value = typename MemberOf<decltype(M)>::Value;

/** A vector of records travels as one line per element. */
template <class V>
constexpr bool kRepeated = false;
template <class V>
constexpr bool kRepeated<std::vector<V>> = !std::is_arithmetic_v<V>;

template <auto M>
void
putField(std::string &out, const Field<Owner<M>> &f, const Owner<M> &msg)
{
    const auto line = [&](const auto &value) {
        out += f.key;
        out += '=';
        if constexpr (std::is_same_v<Value<M>, std::string>)
            out += (f.flags & kRaw) ? value : escapeField(value);
        else
            putValue(out, value);
        out += '\n';
    };
    if constexpr (kRepeated<Value<M>>) {
        for (const auto &element : msg.*M)
            line(element);
    } else {
        line(msg.*M);
    }
}

template <auto M>
void
getField(Owner<M> &msg, const Field<Owner<M>> &f, std::string_view value)
{
    if constexpr (kRepeated<Value<M>>)
        getValue(value, f.key, (msg.*M).emplace_back());
    else if constexpr (std::is_same_v<Value<M>, std::string>)
        msg.*M = (f.flags & kRaw) ? std::string(value) : unescapeField(value);
    else
        getValue(value, f.key, msg.*M);
}

template <auto M>
constexpr Field<Owner<M>>
field(std::string_view key, unsigned flags = 0,
      bool (*omit)(const Owner<M> &) = nullptr,
      void (*check)(const Owner<M> &) = nullptr)
{
    return {key, &putField<M>, &getField<M>, flags, omit, check};
}

template <class Msg, std::size_t N>
std::string
encodeBody(const Msg &msg, const Field<Msg> (&fields)[N])
{
    std::string out;
    for (const auto &f : fields) {
        if (!f.omit || !f.omit(msg))
            f.put(out, f, msg);
    }
    return out;
}

/** Empty lines are skipped and a key may repeat (a scalar keeps its
 *  last value); a line that is not key=value, or names no row, refuses
 *  the body.  After the walk each row, in table order, refuses a
 *  missing required key, then runs a kCheckLast check. */
template <class Msg, std::size_t N>
Msg
decodeBody(std::string_view body, const Field<Msg> (&fields)[N], Msg msg = {})
{
    static_assert(N <= 32, "the seen mask holds 32 rows");
    std::uint32_t seen = 0;
    for (std::size_t start = 0; start < body.size();) {
        const auto nl = std::min(body.find('\n', start), body.size());
        const auto line = body.substr(start, nl - start);
        start = nl + 1;
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string_view::npos)
            throwBadValue("line", line, "key=value");
        const auto key = line.substr(0, eq);
        const auto value = line.substr(eq + 1);
        std::size_t i = 0;
        while (i < N && fields[i].key != key)
            ++i;
        if (i == N)
            throwBadValue("field", key, "known");
        fields[i].get(msg, fields[i], value);
        if (fields[i].check && !(fields[i].flags & kCheckLast))
            fields[i].check(msg);
        seen |= 1u << i;
    }
    for (std::size_t i = 0; i < N; ++i) {
        if ((fields[i].flags & kRequired) && !(seen & (1u << i)))
            throwBadValue("body", fields[i].key, "optional");
        if (fields[i].check && (fields[i].flags & kCheckLast))
            fields[i].check(msg);
    }
    return msg;
}

void
checkModel(const SweepRequest &r)
{
    if (r.model != "ooo" && r.model != "inorder")
        throwProtocol("model must be 'ooo' or 'inorder', got '" + r.model +
                      "'");
}

void
checkMcDist(const SweepRequest &r)
{
    if (r.mcDist != "normal" && r.mcDist != "lognormal")
        throwProtocol("mc_dist must be 'normal' or 'lognormal', got '" +
                      r.mcDist + "'");
}

void
checkAxis(const SweepRequest &r)
{
    if (r.tUseful.empty())
        throwProtocol("request has no t_useful axis");
}

void
checkTenant(const SweepRequest &r)
{
    if (r.tenant.empty() || r.tenant.size() > 64)
        throwProtocol("tenant must be 1..64 characters");
    if (r.tenant.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                   "0123456789._-") != std::string::npos)
        throwProtocol("tenant may only contain [A-Za-z0-9._-]");
}

void
checkWait(const PollRequest &p)
{
    // Well-formed but out of range: a refusal the session survives,
    // not a frame that cannot be trusted.
    if (p.waitMs > kMaxPollWaitMs) {
        throw SvcError(
            ErrorCode::InvalidConfig,
            util::strprintf("wait_ms %llu exceeds the %llu ms cap",
                            static_cast<unsigned long long>(p.waitMs),
                            static_cast<unsigned long long>(kMaxPollWaitMs)));
    }
}

bool
noTenant(const SweepRequest &r)
{
    return r.tenant.empty();
}

/** A deterministic sweep leaves every mc_* field off the wire. */
bool
noMonteCarlo(const SweepRequest &r)
{
    return r.mcSamples == 0;
}

constexpr Field<SweepRequest> kSweepRequest[] = {
    field<&SweepRequest::model>("model", kRaw, nullptr, checkModel),
    field<&SweepRequest::predictor>("predictor", kRaw),
    field<&SweepRequest::instructions>("instructions"),
    field<&SweepRequest::warmup>("warmup"),
    field<&SweepRequest::prewarm>("prewarm"),
    field<&SweepRequest::cycleLimit>("cycle_limit"),
    field<&SweepRequest::overheadFo4>("overhead"),
    field<&SweepRequest::tenant>("tenant", kRaw, noTenant, checkTenant),
    field<&SweepRequest::mcSamples>("mc_samples", 0, noMonteCarlo),
    field<&SweepRequest::mcDist>("mc_dist", kRaw, noMonteCarlo, checkMcDist),
    field<&SweepRequest::mcSigmaLatch>("mc_sigma_latch", 0, noMonteCarlo),
    field<&SweepRequest::mcSigmaSkew>("mc_sigma_skew", 0, noMonteCarlo),
    field<&SweepRequest::mcSigmaJitter>("mc_sigma_jitter", 0, noMonteCarlo),
    field<&SweepRequest::mcSigmaDie>("mc_sigma_die", 0, noMonteCarlo),
    field<&SweepRequest::mcSeed>("mc_seed", 0, noMonteCarlo),
    field<&SweepRequest::tUseful>("t_useful", kRequired | kCheckLast, nullptr,
                                  checkAxis),
    field<&SweepRequest::jobs>("job", kRequired),
};

constexpr Field<JobStatusInfo> kJobStatus[] = {
    field<&JobStatusInfo::id>("id"),
    field<&JobStatusInfo::state>("state"),
    field<&JobStatusInfo::queuePosition>("queue_position"),
    field<&JobStatusInfo::cellsTotal>("cells_total"),
    field<&JobStatusInfo::cellsStarted>("cells_started"),
    field<&JobStatusInfo::cellsDone>("cells_done"),
    field<&JobStatusInfo::errorCode>("error_code"),
    field<&JobStatusInfo::errorMessage>("error_message"),
};

constexpr Field<StatsSnapshot> kStats[] = {
    field<&StatsSnapshot::queueDepth>("queue_depth"),
    field<&StatsSnapshot::maxQueue>("max_queue"),
    field<&StatsSnapshot::runningJobs>("running_jobs"),
    field<&StatsSnapshot::runningCellsStarted>("running_cells_started"),
    field<&StatsSnapshot::runningCellsTotal>("running_cells_total"),
    field<&StatsSnapshot::submitted>("submitted"),
    field<&StatsSnapshot::rejected>("rejected"),
    field<&StatsSnapshot::completed>("completed"),
    field<&StatsSnapshot::failed>("failed"),
    field<&StatsSnapshot::cancelled>("cancelled"),
    field<&StatsSnapshot::cacheBytes>("cache_bytes"),
    field<&StatsSnapshot::cacheEntries>("cache_entries"),
    field<&StatsSnapshot::latencyBuckets>("latency_buckets"),
    field<&StatsSnapshot::latencySamples>("latency_samples"),
    field<&StatsSnapshot::latencyMeanMs>("latency_mean_ms"),
    field<&StatsSnapshot::counters>("counter"),
};

constexpr Field<WorkerHelloInfo> kWorkerHello[] = {
    field<&WorkerHelloInfo::name>("name"),
    field<&WorkerHelloInfo::threads>(
        "threads", kCheckLast, nullptr, [](const WorkerHelloInfo &h) {
            if (h.threads == 0)
                throwProtocol("worker hello declares zero threads");
        }),
};

constexpr Field<HelloOkInfo> kHelloOk[] = {
    field<&HelloOkInfo::workerId>("worker_id"),
    field<&HelloOkInfo::heartbeatMs>("heartbeat_ms"),
    field<&HelloOkInfo::leaseTimeoutMs>("lease_timeout_ms"),
};

constexpr Field<CellLeaseInfo> kCellLease[] = {
    field<&CellLeaseInfo::sweep>("sweep"),
    field<&CellLeaseInfo::point>("point"),
    field<&CellLeaseInfo::job>("job"),
    field<&CellLeaseInfo::requestBody>("request", kRequired),
};

// CellDone's payload is binary; escaped, it still holds NUL bytes, so
// every string is appended as bytes, never through %s.
constexpr Field<CellDoneInfo> kCellDone[] = {
    field<&CellDoneInfo::workerId>("worker_id"),
    field<&CellDoneInfo::sweep>("sweep"),
    field<&CellDoneInfo::point>("point"),
    field<&CellDoneInfo::job>("job"),
    field<&CellDoneInfo::cellPayload>("cell", kRequired),
};

constexpr Field<PollRequest> kPoll[] = {
    field<&PollRequest::id>("id", kRequired),
    field<&PollRequest::waitMs>(
        "wait_ms", kCheckLast,
        [](const PollRequest &p) { return p.waitMs == 0; }, checkWait),
};

/** Bodies without a public struct of their own. */
struct WorkerList
{
    std::vector<WorkerSnapshot> rows;
};

using ErrorBody = std::pair<ErrorCode, std::string>;
using SubmitOkBody = std::pair<std::uint64_t, std::uint64_t>;

template <class V>
struct OneValue
{
    V value{};
};
using U64 = OneValue<std::uint64_t>;
using Flag = OneValue<bool>;

constexpr Field<WorkerList> kWorkerList[] = {
    field<&WorkerList::rows>("worker"),
};

constexpr Field<ErrorBody> kError[] = {
    field<&ErrorBody::first>("code"),
    field<&ErrorBody::second>("message"),
};

constexpr Field<SubmitOkBody> kSubmitOk[] = {
    field<&SubmitOkBody::first>("id", kRequired),
    field<&SubmitOkBody::second>("cells_total"),
};

constexpr Field<U64> kId[] = {field<&U64::value>("id", kRequired)};
constexpr Field<U64> kWorkerId[] = {field<&U64::value>("worker_id", kRequired)};
constexpr Field<U64> kRetryMs[] = {field<&U64::value>("retry_ms", kRequired)};
constexpr Field<Flag> kAccepted[] = {
    field<&Flag::value>("accepted", kRequired)};
constexpr Field<Flag> kKnown[] = {field<&Flag::value>("known", kRequired)};

} // namespace

/** The member encode()/decode() pair of a message and its table. */
#define FO4_WIRE_BODY(Msg, table)                                          \
    std::string Msg::encode() const { return encodeBody(*this, table); }  \
    Msg Msg::decode(std::string_view body) { return decodeBody(body, table); }

FO4_WIRE_BODY(SweepRequest, kSweepRequest)
FO4_WIRE_BODY(JobStatusInfo, kJobStatus)
FO4_WIRE_BODY(StatsSnapshot, kStats)
FO4_WIRE_BODY(WorkerHelloInfo, kWorkerHello)
FO4_WIRE_BODY(HelloOkInfo, kHelloOk)
FO4_WIRE_BODY(CellLeaseInfo, kCellLease)
FO4_WIRE_BODY(CellDoneInfo, kCellDone)
FO4_WIRE_BODY(PollRequest, kPoll)
#undef FO4_WIRE_BODY

/** The free encodeName()/decodeName() pair of a one-value body. */
#define FO4_WIRE_VALUE(Name, V, table)                                     \
    std::string encode##Name(V v)                                          \
    {                                                                      \
        return encodeBody(OneValue<V>{v}, table);                          \
    }                                                                      \
    V decode##Name(std::string_view body)                                  \
    {                                                                      \
        return decodeBody(body, table).value;                              \
    }

FO4_WIRE_VALUE(Id, std::uint64_t, kId)
FO4_WIRE_VALUE(WorkerId, std::uint64_t, kWorkerId)
FO4_WIRE_VALUE(RetryMs, std::uint64_t, kRetryMs)
FO4_WIRE_VALUE(Accepted, bool, kAccepted)
FO4_WIRE_VALUE(Known, bool, kKnown)
#undef FO4_WIRE_VALUE

std::string
WorkerSnapshot::encodeList(const std::vector<WorkerSnapshot> &rows)
{
    return encodeBody(WorkerList{rows}, kWorkerList);
}

std::vector<WorkerSnapshot>
WorkerSnapshot::decodeList(std::string_view body)
{
    return decodeBody(body, kWorkerList).rows;
}

std::string
encodeError(util::ErrorCode code, std::string_view message)
{
    return encodeBody(ErrorBody{code, message}, kError);
}

std::pair<util::ErrorCode, std::string>
decodeError(std::string_view body)
{
    // A body without a code is an Internal error.
    return decodeBody(body, kError, {ErrorCode::Internal, {}});
}

std::string
encodeSubmitOk(std::uint64_t id, std::uint64_t cellsTotal)
{
    return encodeBody(SubmitOkBody{id, cellsTotal}, kSubmitOk);
}

std::pair<std::uint64_t, std::uint64_t>
decodeSubmitOk(std::string_view body)
{
    return decodeBody(body, kSubmitOk);
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
}

const char *
jobStateName(JobState state)
{
    return nameOf(kJobStateNames, state);
}

JobState
jobStateFromName(const std::string &name)
{
    return valueOf<JobState>(kJobStateNames, name, "job state");
}

const char *
workerStateName(WorkerState state)
{
    return nameOf(kWorkerStateNames, state);
}

WorkerState
workerStateFromName(const std::string &name)
{
    return valueOf<WorkerState>(kWorkerStateNames, name, "worker state");
}

} // namespace fo4::svc
