/**
 * @file
 * Wire-protocol corruption matrix, mirroring test_util_journal: every
 * kind of frame damage — truncation, a corrupt CRC, an unknown record
 * type, an oversize or runt length word, a version mismatch — maps to
 * a typed SvcError(Protocol), never a crash, a hang, or a partially
 * believed frame.  Plus round-trip fuzz of every typed body.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "study/runner.hh"
#include "svc/protocol.hh"
#include "svc/sweep.hh"
#include "util/durable_file.hh"
#include "util/net.hh"
#include "util/random.hh"
#include "util/status.hh"

using namespace fo4;
using svc::Frame;
using svc::MsgType;
using util::ErrorCode;

namespace
{

/** Decode a raw frame string the way a reader would. */
Frame
decodeRaw(const std::string &raw)
{
    EXPECT_GE(raw.size(), svc::kFrameHeaderBytes);
    unsigned char header[svc::kFrameHeaderBytes];
    std::memcpy(header, raw.data(), sizeof(header));
    const svc::FrameHeader h = svc::decodeFrameHeader(header);
    return svc::decodePayload(
        h, std::string_view(raw).substr(svc::kFrameHeaderBytes));
}

ErrorCode
decodeError(const std::string &raw)
{
    try {
        decodeRaw(raw);
    } catch (const util::SvcError &e) {
        return e.code();
    }
    return ErrorCode::Ok;
}

/** A loopback (listener, client, accepted server stream) triple. */
struct Loopback
{
    util::TcpListener listener{0};
    util::TcpStream client;
    util::TcpStream server;

    Loopback()
    {
        client = util::TcpStream::connect("127.0.0.1", listener.port());
        auto accepted = listener.accept(2000);
        EXPECT_TRUE(accepted.has_value());
        server = std::move(*accepted);
    }
};

svc::SweepRequest
sampleRequest()
{
    svc::SweepRequest req;
    req.tUseful = {8.0, 6.0};
    svc::WireJob a;
    a.name = "164.gzip";
    req.jobs.push_back(a);
    return req;
}

} // namespace

// ---------------------------------------------------------------------
// Frame round trip and the corruption matrix
// ---------------------------------------------------------------------

TEST(SvcFrame, RoundTripsTypeAndBody)
{
    const std::string raw =
        svc::encodeFrame(MsgType::SubmitSweep, "hello\nworld");
    const Frame frame = decodeRaw(raw);
    EXPECT_EQ(frame.type, MsgType::SubmitSweep);
    EXPECT_EQ(frame.body, "hello\nworld");
}

TEST(SvcFrame, GoldenBytesOfOneFrame)
{
    // `u32 len | u32 crc | u16 version | u16 type | body` for a v5
    // Poll of "id=7".
    const std::string golden("\x08\x00\x00\x00\xc2\x46\xaf\xbb"
                             "\x05\x00\x02\x00\x69\x64\x3d\x37",
                             16);
    EXPECT_EQ(svc::encodeFrame(MsgType::Poll, "id=7"), golden);
    const Frame frame = decodeRaw(golden);
    EXPECT_EQ(frame.type, MsgType::Poll);
    EXPECT_EQ(frame.body, "id=7");
}

TEST(SvcFrame, EmptyBodyRoundTrips)
{
    const Frame frame = decodeRaw(svc::encodeFrame(MsgType::Stats, ""));
    EXPECT_EQ(frame.type, MsgType::Stats);
    EXPECT_TRUE(frame.body.empty());
}

TEST(SvcFrame, CorruptPayloadByteIsRefused)
{
    std::string raw = svc::encodeFrame(MsgType::Poll, "id=7\n");
    raw[svc::kFrameHeaderBytes + 5] ^= 0x40; // damage one body byte
    EXPECT_EQ(decodeError(raw), ErrorCode::Protocol);
}

TEST(SvcFrame, CorruptCrcWordIsRefused)
{
    std::string raw = svc::encodeFrame(MsgType::Poll, "id=7\n");
    raw[5] ^= 0x01; // damage the stored CRC itself
    EXPECT_EQ(decodeError(raw), ErrorCode::Protocol);
}

TEST(SvcFrame, UnknownRecordTypeIsRefused)
{
    // Patch the type word to 999 and re-seal the CRC: the frame is
    // well-formed, just meaningless — exactly the case the matrix
    // distinguishes from corruption.
    std::string payload;
    payload.push_back(static_cast<char>(svc::kProtocolVersion));
    payload.push_back(static_cast<char>(svc::kProtocolVersion >> 8));
    payload.push_back(static_cast<char>(999 & 0xff));
    payload.push_back(static_cast<char>(999 >> 8));
    std::string raw;
    raw.resize(svc::kFrameHeaderBytes);
    const auto len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i) {
        raw[i] = static_cast<char>(len >> (8 * i));
        raw[4 + i] = static_cast<char>(crc >> (8 * i));
    }
    raw += payload;
    EXPECT_FALSE(svc::msgTypeKnown(999));
    EXPECT_EQ(decodeError(raw), ErrorCode::Protocol);
}

TEST(SvcFrame, VersionMismatchIsRefused)
{
    // v5 (the held Poll) refuses a v4 peer as well as a newer one.
    EXPECT_EQ(svc::kProtocolVersion, 5);
    for (const std::uint16_t wrongVersion :
         {static_cast<std::uint16_t>(svc::kProtocolVersion - 1),
          static_cast<std::uint16_t>(svc::kProtocolVersion + 1)}) {
        std::string payload;
        payload.push_back(static_cast<char>(wrongVersion));
        payload.push_back(static_cast<char>(wrongVersion >> 8));
        payload.push_back(static_cast<char>(
            static_cast<std::uint16_t>(MsgType::Poll)));
        payload.push_back(static_cast<char>(
            static_cast<std::uint16_t>(MsgType::Poll) >> 8));
        payload += "id=7\n";
        std::string raw;
        raw.resize(svc::kFrameHeaderBytes);
        const auto len = static_cast<std::uint32_t>(payload.size());
        const std::uint32_t crc =
            util::crc32(payload.data(), payload.size());
        for (int i = 0; i < 4; ++i) {
            raw[i] = static_cast<char>(len >> (8 * i));
            raw[4 + i] = static_cast<char>(crc >> (8 * i));
        }
        raw += payload;
        EXPECT_EQ(decodeError(raw), ErrorCode::Protocol)
            << "version " << wrongVersion;
    }
}

TEST(SvcFrame, OversizeLengthIsRefusedBeforeAllocation)
{
    unsigned char header[svc::kFrameHeaderBytes] = {};
    const std::uint32_t huge = svc::kMaxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<unsigned char>(huge >> (8 * i));
    try {
        svc::decodeFrameHeader(header);
        FAIL() << "oversize length word accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Protocol);
    }
}

TEST(SvcFrame, RuntLengthIsRefused)
{
    // 3 bytes cannot hold the version and type words.
    unsigned char header[svc::kFrameHeaderBytes] = {3, 0, 0, 0,
                                                    0, 0, 0, 0};
    try {
        svc::decodeFrameHeader(header);
        FAIL() << "runt length word accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Protocol);
    }
}

// ---------------------------------------------------------------------
// Stream framing over a real socket
// ---------------------------------------------------------------------

TEST(SvcStream, FrameSurvivesTheSocket)
{
    Loopback loop;
    svc::writeFrame(loop.client, MsgType::Poll, "id=42\n");
    const auto frame = svc::readFrame(loop.server, 2000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::Poll);
    EXPECT_EQ(frame->body, "id=42\n");
}

TEST(SvcStream, OrderlyEofBetweenFramesIsNullopt)
{
    Loopback loop;
    loop.client.close();
    EXPECT_FALSE(svc::readFrame(loop.server, 2000).has_value());
}

TEST(SvcStream, TruncatedHeaderIsProtocolError)
{
    Loopback loop;
    const std::string raw = svc::encodeFrame(MsgType::Poll, "id=1\n");
    loop.client.writeAll(raw.data(), 3); // 3 of 8 header bytes
    loop.client.close();
    try {
        svc::readFrame(loop.server, 2000);
        FAIL() << "truncated header accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Protocol);
    }
}

TEST(SvcStream, TruncatedPayloadIsProtocolError)
{
    Loopback loop;
    const std::string raw = svc::encodeFrame(MsgType::Poll, "id=1\n");
    loop.client.writeAll(raw.data(), raw.size() - 2);
    loop.client.close();
    try {
        svc::readFrame(loop.server, 2000);
        FAIL() << "truncated payload accepted";
    } catch (const util::SvcError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Protocol);
    }
}

// ---------------------------------------------------------------------
// Field escaping
// ---------------------------------------------------------------------

TEST(SvcEscape, RoundTripsStructuralCharacters)
{
    const std::string nasty = "a\\b\nc\td\\n\\\\e";
    EXPECT_EQ(svc::unescapeField(svc::escapeField(nasty)), nasty);
    EXPECT_EQ(svc::escapeField(nasty).find('\n'), std::string::npos);
    EXPECT_EQ(svc::escapeField(nasty).find('\t'), std::string::npos);
}

TEST(SvcEscape, DanglingEscapeIsRefused)
{
    EXPECT_THROW(svc::unescapeField("oops\\"), util::SvcError);
    EXPECT_THROW(svc::unescapeField("bad\\qescape"), util::SvcError);
}

// ---------------------------------------------------------------------
// Typed-body round trips
// ---------------------------------------------------------------------

TEST(SvcBodies, SweepRequestRoundTripsExactly)
{
    svc::SweepRequest req = sampleRequest();
    req.model = "inorder";
    req.predictor = "bimodal";
    req.instructions = 12345;
    req.warmup = 99;
    req.prewarm = 777;
    req.cycleLimit = 31337;
    req.overheadFo4 = 1.7999999999999998; // survives only via hexfloat
    req.tUseful = {15.999999999999996, 6.0, 2.0000000000000004};
    svc::WireJob traceJob;
    traceJob.name = "weird name\twith\nstructure";
    traceJob.cls = trace::BenchClass::VectorFp;
    traceJob.fromTrace = true;
    traceJob.tracePath = "/tmp/some\npath.fo4t";
    traceJob.cycleLimit = 10;
    req.jobs.push_back(traceJob);

    const svc::SweepRequest back =
        svc::SweepRequest::decode(req.encode());
    EXPECT_EQ(back.model, req.model);
    EXPECT_EQ(back.predictor, req.predictor);
    EXPECT_EQ(back.instructions, req.instructions);
    EXPECT_EQ(back.warmup, req.warmup);
    EXPECT_EQ(back.prewarm, req.prewarm);
    EXPECT_EQ(back.cycleLimit, req.cycleLimit);
    EXPECT_EQ(back.overheadFo4, req.overheadFo4); // bit-exact
    ASSERT_EQ(back.tUseful.size(), req.tUseful.size());
    for (std::size_t i = 0; i < req.tUseful.size(); ++i)
        EXPECT_EQ(back.tUseful[i], req.tUseful[i]);
    ASSERT_EQ(back.jobs.size(), req.jobs.size());
    for (std::size_t i = 0; i < req.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].name, req.jobs[i].name);
        EXPECT_EQ(back.jobs[i].cls, req.jobs[i].cls);
        EXPECT_EQ(back.jobs[i].fromTrace, req.jobs[i].fromTrace);
        EXPECT_EQ(back.jobs[i].tracePath, req.jobs[i].tracePath);
        EXPECT_EQ(back.jobs[i].cycleLimit, req.jobs[i].cycleLimit);
    }
}

TEST(SvcBodies, SweepRequestFuzzedDoublesRoundTrip)
{
    // Hexfloat is the whole identity story: any double the axis can
    // hold must decode to the same bits.
    util::Rng rng(0xf04dLL);
    svc::SweepRequest req = sampleRequest();
    req.tUseful.clear();
    for (int i = 0; i < 200; ++i)
        req.tUseful.push_back(2.0 + 14.0 * rng.uniform());
    const svc::SweepRequest back =
        svc::SweepRequest::decode(req.encode());
    ASSERT_EQ(back.tUseful.size(), req.tUseful.size());
    for (std::size_t i = 0; i < req.tUseful.size(); ++i)
        EXPECT_EQ(back.tUseful[i], req.tUseful[i]) << i;
}

TEST(SvcBodies, MalformedRequestsAreTypedErrors)
{
    const char *broken[] = {
        "",                                     // no fields at all
        "model=ooo\n",                          // no axis, no jobs
        "t_useful=6.0\n",                       // no jobs
        "job=profile\t0\t0\tgzip\n",            // no axis
        "t_useful=6.0\njob=magic\t0\t0\tx\n",   // bad job kind
        "t_useful=6.0\njob=profile\t9\t0\tx\n", // bad class
        "t_useful=6.0\njob=profile\t0\t0\t\n",  // empty name
        "t_useful=nope\njob=profile\t0\t0\tx\n", // bad double
        "instructions=-4\n",                    // negative unsigned
        "mystery=1\nt_useful=6\njob=profile\t0\t0\tx\n", // unknown key
        "no-equals-sign",                       // not key=value
    };
    for (const char *body : broken) {
        try {
            svc::SweepRequest::decode(body);
            FAIL() << "accepted: " << body;
        } catch (const util::SvcError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Protocol) << body;
        }
    }
}

TEST(SvcBodies, JobStatusRoundTrips)
{
    svc::JobStatusInfo info;
    info.id = 77;
    info.state = svc::JobState::Failed;
    info.queuePosition = 3;
    info.cellsTotal = 42;
    info.cellsStarted = 17;
    info.errorCode = ErrorCode::Deadlock;
    info.errorMessage = "watchdog fired\nat cycle 10";
    const svc::JobStatusInfo back =
        svc::JobStatusInfo::decode(info.encode());
    EXPECT_EQ(back.id, info.id);
    EXPECT_EQ(back.state, info.state);
    EXPECT_EQ(back.queuePosition, info.queuePosition);
    EXPECT_EQ(back.cellsTotal, info.cellsTotal);
    EXPECT_EQ(back.cellsStarted, info.cellsStarted);
    EXPECT_EQ(back.errorCode, info.errorCode);
    EXPECT_EQ(back.errorMessage, info.errorMessage);
    EXPECT_TRUE(back.terminal());
}

TEST(SvcBodies, StatsRoundTrips)
{
    svc::StatsSnapshot s;
    s.queueDepth = 2;
    s.maxQueue = 8;
    s.runningJobs = 1;
    s.runningCellsStarted = 5;
    s.runningCellsTotal = 12;
    s.submitted = 10;
    s.rejected = 3;
    s.completed = 6;
    s.failed = 1;
    s.cancelled = 2;
    s.latencyBuckets = {0, 1, 5, 2};
    s.latencySamples = 8;
    s.latencyMeanMs = 2.125;
    s.counters = {{"svc.connections", 4}, {"weird\tname", 9}};
    const svc::StatsSnapshot back =
        svc::StatsSnapshot::decode(s.encode());
    EXPECT_EQ(back.queueDepth, s.queueDepth);
    EXPECT_EQ(back.maxQueue, s.maxQueue);
    EXPECT_EQ(back.runningJobs, s.runningJobs);
    EXPECT_EQ(back.runningCellsStarted, s.runningCellsStarted);
    EXPECT_EQ(back.runningCellsTotal, s.runningCellsTotal);
    EXPECT_EQ(back.submitted, s.submitted);
    EXPECT_EQ(back.rejected, s.rejected);
    EXPECT_EQ(back.completed, s.completed);
    EXPECT_EQ(back.failed, s.failed);
    EXPECT_EQ(back.cancelled, s.cancelled);
    EXPECT_EQ(back.latencyBuckets, s.latencyBuckets);
    EXPECT_EQ(back.latencySamples, s.latencySamples);
    EXPECT_EQ(back.latencyMeanMs, s.latencyMeanMs);
    EXPECT_EQ(back.counters, s.counters);
}

TEST(SvcBodies, ErrorAndIdBodiesRoundTrip)
{
    const auto [code, message] = svc::decodeError(
        svc::encodeError(ErrorCode::Overloaded, "queue full\nretry"));
    EXPECT_EQ(code, ErrorCode::Overloaded);
    EXPECT_EQ(message, "queue full\nretry");

    EXPECT_EQ(svc::decodeId(svc::encodeId(918273645)), 918273645u);
    const auto [id, cells] =
        svc::decodeSubmitOk(svc::encodeSubmitOk(7, 84));
    EXPECT_EQ(id, 7u);
    EXPECT_EQ(cells, 84u);

    // An unknown remote code degrades to Internal, staying typed.
    EXPECT_EQ(util::errorCodeFromName("FutureProtocolCode"),
              ErrorCode::Internal);
    EXPECT_EQ(util::errorCodeFromName("Deadlock"), ErrorCode::Deadlock);
}

TEST(SvcBodies, HeldPollRoundTripsAndPlainPollIsTheV4Body)
{
    const svc::PollRequest held{.id = 918273645, .waitMs = 2500};
    EXPECT_EQ(held.encode(), "id=918273645\nwait_ms=2500\n");
    const svc::PollRequest back = svc::PollRequest::decode(held.encode());
    EXPECT_EQ(back.id, held.id);
    EXPECT_EQ(back.waitMs, held.waitMs);

    // wait_ms = 0 stays off the wire: byte-identical to the v4 body.
    const svc::PollRequest plain{.id = 7};
    EXPECT_EQ(plain.encode(), "id=7\n");
    EXPECT_EQ(plain.encode(), svc::encodeId(7));
    const svc::PollRequest v4 = svc::PollRequest::decode("id=7\n");
    EXPECT_EQ(v4.id, 7u);
    EXPECT_EQ(v4.waitMs, 0u);

    // The cap itself is a legal hold.
    const svc::PollRequest capped{.id = 1,
                                  .waitMs = svc::kMaxPollWaitMs};
    EXPECT_EQ(svc::PollRequest::decode(capped.encode()).waitMs,
              svc::kMaxPollWaitMs);
}

TEST(SvcBodies, MalformedOrOutOfRangeWaitIsTyped)
{
    const auto codeOf = [](const std::string &body) {
        try {
            svc::PollRequest::decode(body);
        } catch (const util::SvcError &e) {
            return e.code();
        }
        return ErrorCode::Ok;
    };
    // Malformed: the session-fatal Protocol verdict.
    EXPECT_EQ(codeOf("id=1\nwait_ms=abc\n"), ErrorCode::Protocol);
    EXPECT_EQ(codeOf("id=1\nwait_ms=-5\n"), ErrorCode::Protocol);
    EXPECT_EQ(codeOf("id=1\nwait_ms=\n"), ErrorCode::Protocol);
    EXPECT_EQ(codeOf("id=1\nwait_ms\n"), ErrorCode::Protocol);
    EXPECT_EQ(codeOf("wait_ms=5\n"), ErrorCode::Protocol);
    EXPECT_EQ(codeOf("id=1\nhold=5\n"), ErrorCode::Protocol);
    // Well-formed but above the cap: a refusal the session survives.
    EXPECT_EQ(codeOf(util::strprintf(
                  "id=1\nwait_ms=%llu\n",
                  static_cast<unsigned long long>(svc::kMaxPollWaitMs +
                                                  1))),
              ErrorCode::InvalidConfig);
    EXPECT_EQ(codeOf("id=1\nwait_ms=99999999999999999999\n"),
              ErrorCode::Protocol); // overflows u64: malformed
    EXPECT_EQ(codeOf("id=1\nwait_ms=10\n"), ErrorCode::Ok);
}

TEST(SvcBodies, JobStateNamesRoundTrip)
{
    for (const svc::JobState s :
         {svc::JobState::Queued, svc::JobState::Running,
          svc::JobState::Done, svc::JobState::Failed,
          svc::JobState::Cancelled}) {
        EXPECT_EQ(svc::jobStateFromName(svc::jobStateName(s)), s);
    }
    EXPECT_THROW(svc::jobStateFromName("Exploded"), util::SvcError);
}

// ---------------------------------------------------------------------
// Results rendering: the serializeSuite discipline over the wire
// ---------------------------------------------------------------------

TEST(SvcResults, RenderMatchesSerializeSuiteBytes)
{
    // A tiny real sweep: rendering is header + point lines + the exact
    // serializeSuite bytes, so wire results inherit the byte-identity
    // contract of the parallel engine.
    svc::SweepRequest req = sampleRequest();
    req.instructions = 2000;
    req.warmup = 200;
    req.prewarm = 10000;
    const svc::SweepPlan plan = svc::planSweep(req);
    const std::string a = svc::runSweep(plan, 1, "", nullptr, {});
    const std::string b = svc::runSweep(plan, 1, "", nullptr, {});
    EXPECT_EQ(a, b); // deterministic end to end
    EXPECT_EQ(a.rfind("fo4-sweep-results v1\n", 0), 0u);
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        EXPECT_NE(a.find(util::strprintf("point=%zu t_useful=%a", i,
                                         plan.tUseful[i])),
                  std::string::npos);
    }

    // serializeSuite round trip: the canonical bytes of a real sweep,
    // framed as a Results record and read back over a real socket,
    // arrive bit-exact — the opaque-payload half of the identity
    // guarantee.
    Loopback sockets;
    svc::writeFrame(sockets.client, svc::MsgType::Results, a);
    const auto got = svc::readFrame(sockets.server, 2000);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, svc::MsgType::Results);
    EXPECT_EQ(got->body, a);
}

TEST(SvcResults, FuzzedOpaquePayloadsSurviveFraming)
{
    // Length-prefixed framing promises "no escaping needed": any byte
    // string — embedded NULs, newlines, tabs, 0xFF runs, hexfloat text —
    // crosses the wire unchanged.  Fuzz that promise.
    util::Rng rng(0x5eedf04dULL);
    Loopback sockets;
    for (int round = 0; round < 50; ++round) {
        const std::size_t size =
            static_cast<std::size_t>(rng.uniform() * 4096);
        std::string payload;
        payload.reserve(size + 32);
        for (std::size_t i = 0; i < size; ++i)
            payload.push_back(
                static_cast<char>(rng.uniform() * 256.0));
        // Splice in the structural characters escaping would fear.
        payload += '\n';
        payload += '\t';
        payload += '\0'; // printf-style rendering would truncate here
        payload += util::strprintf("|%a\n", rng.uniform());
        svc::writeFrame(sockets.client, svc::MsgType::Results, payload);
        const auto got = svc::readFrame(sockets.server, 2000);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->body, payload) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Monte Carlo request fields (protocol v4)
// ---------------------------------------------------------------------

TEST(SvcBodies, MonteCarloFieldsRoundTripExactly)
{
    svc::SweepRequest req = sampleRequest();
    req.mcSamples = 64;
    req.mcDist = "lognormal";
    req.mcSigmaLatch = 0.08000000000000007; // survives only via hexfloat
    req.mcSigmaSkew = 0.019999999999999997;
    req.mcSigmaJitter = 0.03;
    req.mcSigmaDie = 1e-17;
    req.mcSeed = 0xdeadbeefcafef00dULL;

    const svc::SweepRequest back =
        svc::SweepRequest::decode(req.encode());
    EXPECT_EQ(back.mcSamples, req.mcSamples);
    EXPECT_EQ(back.mcDist, req.mcDist);
    EXPECT_EQ(back.mcSigmaLatch, req.mcSigmaLatch); // bit-exact
    EXPECT_EQ(back.mcSigmaSkew, req.mcSigmaSkew);
    EXPECT_EQ(back.mcSigmaJitter, req.mcSigmaJitter);
    EXPECT_EQ(back.mcSigmaDie, req.mcSigmaDie);
    EXPECT_EQ(back.mcSeed, req.mcSeed);
}

TEST(SvcBodies, DeterministicRequestOmitsMonteCarloFields)
{
    // mcSamples == 0 must keep the body byte-stable with pre-v4
    // encoders: no mc_* key may appear.
    const svc::SweepRequest req = sampleRequest();
    ASSERT_EQ(req.mcSamples, 0u);
    const std::string body = req.encode();
    EXPECT_EQ(body.find("mc_"), std::string::npos) << body;
    const svc::SweepRequest back = svc::SweepRequest::decode(body);
    EXPECT_EQ(back.mcSamples, 0u);
    EXPECT_EQ(back.mcDist, "normal");
    EXPECT_EQ(back.mcSigmaLatch, 0.0);
    EXPECT_EQ(back.mcSeed, 0u);
}

TEST(SvcBodies, MalformedMonteCarloFieldsAreTypedErrors)
{
    const char *broken[] = {
        "mc_samples=nope\nt_useful=6\njob=profile\t0\t0\tx\n",
        "mc_dist=cauchy\nt_useful=6\njob=profile\t0\t0\tx\n",
        "mc_sigma_latch=zzz\nt_useful=6\njob=profile\t0\t0\tx\n",
        "mc_seed=-3\nt_useful=6\njob=profile\t0\t0\tx\n",
    };
    for (const char *body : broken) {
        try {
            svc::SweepRequest::decode(body);
            FAIL() << "accepted: " << body;
        } catch (const util::SvcError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Protocol) << body;
        }
    }
}

TEST(SvcBodies, MonteCarloPlanExpandsSampleMajor)
{
    svc::SweepRequest req = sampleRequest();
    req.tUseful = {8.0, 6.0};
    req.mcSamples = 3;
    req.mcSigmaLatch = 0.05;
    req.mcSeed = 7;
    const svc::SweepPlan plan =
        svc::planSweep(svc::SweepRequest::decode(req.encode()));
    // 3 dice x 2 base points, sample-major; t_useful repeats in step.
    ASSERT_EQ(plan.points.size(), 6u);
    ASSERT_EQ(plan.tUseful.size(), 6u);
    for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(plan.tUseful[s * 2 + 0], 8.0);
        EXPECT_EQ(plan.tUseful[s * 2 + 1], 6.0);
        EXPECT_EQ(plan.points[s * 2 + 0].clock.tUsefulFo4, 8.0);
        EXPECT_EQ(plan.points[s * 2 + 1].clock.tUsefulFo4, 6.0);
    }
    // Dice drew distinct clocks; replanning the same body reproduces
    // them bit-exactly (what lets a fleet worker re-derive the grid).
    EXPECT_NE(plan.points[0].clock.overhead.latchFo4,
              plan.points[2].clock.overhead.latchFo4);
    const svc::SweepPlan again =
        svc::planSweep(svc::SweepRequest::decode(req.encode()));
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        EXPECT_EQ(plan.points[i].clock.overhead.latchFo4,
                  again.points[i].clock.overhead.latchFo4);
        EXPECT_EQ(plan.points[i].clock.overhead.skewFo4,
                  again.points[i].clock.overhead.skewFo4);
        EXPECT_EQ(plan.points[i].clock.overhead.jitterFo4,
                  again.points[i].clock.overhead.jitterFo4);
    }
    EXPECT_EQ(svc::planFingerprint(plan), svc::planFingerprint(again));
}
