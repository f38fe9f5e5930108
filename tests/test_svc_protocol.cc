/**
 * @file
 * Wire-protocol corruption matrix, mirroring test_util_journal: every
 * kind of frame damage — truncation, a corrupt CRC, an unknown record
 * type, an oversize or runt length word, a version mismatch — maps to
 * a typed SvcError(Protocol), never a crash, a hang, or a partially
 * believed frame.  Plus round-trip fuzz of every typed body.
 */

#include <gtest/gtest.h>

#include <cmath>
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

// ---------------------------------------------------------------------
// Golden bodies: the exact bytes of every message and helper body
// ---------------------------------------------------------------------

namespace
{

/** Unambiguous printable rendering of a byte string. */
std::string
shown(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20 || u > 0x7e || c == '\\' || c == '"')
            out += util::strprintf("\\x%02x", u);
        else
            out += c;
    }
    return out + "\"";
}

/** Field-by-field rendering of a decoded message: doubles in hexfloat
 *  (bit-exact), strings byte-exact, so two renderings are equal exactly
 *  when every field is. */
struct Fields
{
    std::string out;

    Fields &
    operator()(const char *key, std::uint64_t v)
    {
        out += util::strprintf("%s=%llu;", key,
                               static_cast<unsigned long long>(v));
        return *this;
    }

    Fields &
    operator()(const char *key, double v)
    {
        out += util::strprintf("%s=%a;", key, v);
        return *this;
    }

    Fields &
    operator()(const char *key, std::string_view v)
    {
        out += util::strprintf("%s=%s;", key, shown(v).c_str());
        return *this;
    }
};

template <class E>
std::uint64_t
u64(E v)
{
    return static_cast<std::uint64_t>(v);
}

std::string
describe(const svc::SweepRequest &r)
{
    Fields f;
    f("model", r.model)("predictor", r.predictor)("instructions",
                                                  r.instructions);
    f("warmup", r.warmup)("prewarm", r.prewarm)("cycle_limit",
                                                r.cycleLimit);
    f("overhead", r.overheadFo4)("tenant", r.tenant)("mc_samples",
                                                     r.mcSamples);
    f("mc_dist", r.mcDist)("mc_latch", r.mcSigmaLatch)("mc_skew",
                                                        r.mcSigmaSkew);
    f("mc_jitter", r.mcSigmaJitter)("mc_die", r.mcSigmaDie)("mc_seed",
                                                             r.mcSeed);
    for (const double t : r.tUseful)
        f("t_useful", t);
    for (const auto &j : r.jobs) {
        f("job.name", j.name)("job.cls", u64(j.cls))("job.trace",
                                                     u64(j.fromTrace));
        f("job.path", j.tracePath)("job.cycle_limit", j.cycleLimit);
    }
    return f.out;
}

std::string
describe(const svc::JobStatusInfo &s)
{
    Fields f;
    f("id", s.id)("state", u64(s.state))("queue_position",
                                         s.queuePosition);
    f("cells_total", s.cellsTotal)("cells_started", s.cellsStarted);
    f("cells_done", s.cellsDone)("error_code", u64(s.errorCode));
    f("error_message", s.errorMessage);
    return f.out;
}

std::string
describe(const svc::StatsSnapshot &s)
{
    Fields f;
    f("queue_depth", s.queueDepth)("max_queue", s.maxQueue);
    f("running_jobs", s.runningJobs)("running_cells_started",
                                     s.runningCellsStarted);
    f("running_cells_total", s.runningCellsTotal)("submitted",
                                                  s.submitted);
    f("rejected", s.rejected)("completed", s.completed)("failed",
                                                        s.failed);
    f("cancelled", s.cancelled)("cache_bytes", s.cacheBytes);
    f("cache_entries", s.cacheEntries);
    for (const std::uint64_t b : s.latencyBuckets)
        f("bucket", b);
    f("latency_samples", s.latencySamples)("latency_mean_ms",
                                           s.latencyMeanMs);
    for (const auto &[name, value] : s.counters)
        f("counter.name", name)("counter.value", value);
    return f.out;
}

std::string
describe(const svc::WorkerHelloInfo &h)
{
    return Fields{}("name", h.name)("threads", h.threads).out;
}

std::string
describe(const svc::HelloOkInfo &h)
{
    return Fields{}("worker_id", h.workerId)("heartbeat_ms", h.heartbeatMs)(
               "lease_timeout_ms", h.leaseTimeoutMs)
        .out;
}

std::string
describe(const svc::CellLeaseInfo &l)
{
    return Fields{}("sweep", l.sweep)("point", l.point)("job", l.job)(
               "request", l.requestBody)
        .out;
}

std::string
describe(const svc::CellDoneInfo &d)
{
    return Fields{}("worker_id", d.workerId)("sweep", d.sweep)(
               "point", d.point)("job", d.job)("cell", d.cellPayload)
        .out;
}

std::string
describe(const std::vector<svc::WorkerSnapshot> &rows)
{
    Fields f;
    for (const auto &w : rows) {
        f("id", w.id)("name", w.name)("state", u64(w.state));
        f("leases", w.activeLeases)("completed", w.cellsCompleted);
        f("heartbeat_age_ms", w.heartbeatAgeMs);
    }
    return f.out;
}

std::string
describe(const svc::PollRequest &p)
{
    return Fields{}("id", p.id)("wait_ms", p.waitMs).out;
}

/** One message kind: decode a body, re-encode it, render its fields. */
struct BodyCodec
{
    const char *name;
    std::string (*roundTrip)(std::string_view body); ///< throws SvcError
    bool capIsInvalidConfig = false; ///< the Poll wait_ms cap
};

template <class Msg>
std::string
roundTripMsg(std::string_view body)
{
    const Msg msg = Msg::decode(body);
    (void)msg.encode();
    return describe(msg);
}

const BodyCodec kSweepCodec{"SweepRequest",
                            &roundTripMsg<svc::SweepRequest>};
const BodyCodec kStatusCodec{"JobStatusInfo",
                             &roundTripMsg<svc::JobStatusInfo>};
const BodyCodec kStatsCodec{"StatsSnapshot",
                            &roundTripMsg<svc::StatsSnapshot>};
const BodyCodec kHelloCodec{"WorkerHelloInfo",
                            &roundTripMsg<svc::WorkerHelloInfo>};
const BodyCodec kHelloOkCodec{"HelloOkInfo",
                              &roundTripMsg<svc::HelloOkInfo>};
const BodyCodec kLeaseCodec{"CellLeaseInfo",
                            &roundTripMsg<svc::CellLeaseInfo>};
const BodyCodec kDoneCodec{"CellDoneInfo",
                           &roundTripMsg<svc::CellDoneInfo>};
const BodyCodec kPollCodec{"PollRequest", &roundTripMsg<svc::PollRequest>,
                           true};
const BodyCodec kWorkersCodec{
    "WorkerReport", [](std::string_view body) {
        const auto rows = svc::WorkerSnapshot::decodeList(body);
        (void)svc::WorkerSnapshot::encodeList(rows);
        return describe(rows);
    }};
const BodyCodec kErrorCodec{"Error", [](std::string_view body) {
                                const auto [code, message] =
                                    svc::decodeError(body);
                                (void)svc::encodeError(code, message);
                                return Fields{}("code", u64(code))(
                                           "message", message)
                                    .out;
                            }};
const BodyCodec kSubmitOkCodec{"SubmitOk", [](std::string_view body) {
                                   const auto [id, cells] =
                                       svc::decodeSubmitOk(body);
                                   (void)svc::encodeSubmitOk(id, cells);
                                   return Fields{}("id", id)("cells", cells)
                                       .out;
                               }};
const BodyCodec kIdCodec{"Id", [](std::string_view body) {
                             const std::uint64_t id = svc::decodeId(body);
                             (void)svc::encodeId(id);
                             return Fields{}("id", id).out;
                         }};
const BodyCodec kWorkerIdCodec{"WorkerId", [](std::string_view body) {
                                   const std::uint64_t id =
                                       svc::decodeWorkerId(body);
                                   (void)svc::encodeWorkerId(id);
                                   return Fields{}("worker_id", id).out;
                               }};
const BodyCodec kRetryCodec{"RetryMs", [](std::string_view body) {
                                const std::uint64_t ms =
                                    svc::decodeRetryMs(body);
                                (void)svc::encodeRetryMs(ms);
                                return Fields{}("retry_ms", ms).out;
                            }};
const BodyCodec kAcceptedCodec{"Accepted", [](std::string_view body) {
                                   const bool v = svc::decodeAccepted(body);
                                   (void)svc::encodeAccepted(v);
                                   return Fields{}("accepted", u64(v)).out;
                               }};
const BodyCodec kKnownCodec{"Known", [](std::string_view body) {
                                const bool v = svc::decodeKnown(body);
                                (void)svc::encodeKnown(v);
                                return Fields{}("known", u64(v)).out;
                            }};

/** One golden: the encoder's exact output for a fixed message, and the
 *  FNV-1a digest of the outcomes of every one-byte substitution of it
 *  (see SvcGolden.EveryOneByteMutationIsTypedOrReEncodes). */
struct GoldenBody
{
    const BodyCodec *codec;
    std::string encoded;
    std::string golden;
    std::uint64_t mutationDigest;
};

svc::SweepRequest
traceRequest()
{
    svc::SweepRequest req;
    req.model = "inorder";
    req.predictor = "bimodal";
    req.instructions = 2000;
    req.warmup = 200;
    req.prewarm = 0;
    req.cycleLimit = 123456;
    req.overheadFo4 = 2.5;
    req.tUseful = {16.0, 0.5};
    req.tenant = "team-a.b_c";
    req.mcSamples = 3;
    req.mcDist = "lognormal";
    req.mcSigmaLatch = 0.25;
    req.mcSigmaSkew = 0.0;
    req.mcSigmaJitter = 1.5;
    req.mcSigmaDie = -0.125;
    req.mcSeed = 7;
    svc::WireJob t;
    t.name = "my\ttrace";
    t.cls = trace::BenchClass::NonVectorFp;
    t.fromTrace = true;
    t.tracePath = "/data/a\\b\n.fo4cap";
    t.cycleLimit = 1000;
    req.jobs.push_back(t);
    svc::WireJob p;
    p.name = "171.swim";
    p.cls = trace::BenchClass::VectorFp;
    req.jobs.push_back(p);
    return req;
}

const std::string kSampleRequestBody =
    "model=ooo\npredictor=tournament\ninstructions=80000\n"
    "warmup=10000\nprewarm=500000\ncycle_limit=0\n"
    "overhead=0x1.ccccccccccccdp+0\nt_useful=0x1p+3 0x1.8p+2\n"
    "job=profile\t0\t0\t164.gzip\n";

const char kCellDoneGolden[] = "worker_id=5\nsweep=99\npoint=0\njob=3\n"
                               "cell=a\0b\\nc\\td\\\\e\n";

std::vector<GoldenBody>
goldenBodies()
{
    std::vector<GoldenBody> g;

    // SweepRequest: a profile job with the default tenant and no Monte
    // Carlo (the pre-v3 body), ...
    g.push_back({&kSweepCodec, sampleRequest().encode(), kSampleRequestBody,
                 0x10a1abc42c718a58ULL});
    // ... a tenant without Monte Carlo, ...
    svc::SweepRequest tenanted = sampleRequest();
    tenanted.tenant = "alice";
    g.push_back({&kSweepCodec, tenanted.encode(),
                 "model=ooo\npredictor=tournament\ninstructions=80000\n"
                 "warmup=10000\nprewarm=500000\ncycle_limit=0\n"
                 "overhead=0x1.ccccccccccccdp+0\ntenant=alice\n"
                 "t_useful=0x1p+3 0x1.8p+2\n"
                 "job=profile\t0\t0\t164.gzip\n",
                 0x521bdce923e917dcULL});
    // ... Monte Carlo with the default tenant, ...
    svc::SweepRequest mc = sampleRequest();
    mc.mcSamples = 64;
    mc.mcSigmaLatch = 0.05;
    mc.mcSeed = 0xdeadbeefcafef00dULL;
    g.push_back({&kSweepCodec, mc.encode(),
                 "model=ooo\npredictor=tournament\ninstructions=80000\n"
                 "warmup=10000\nprewarm=500000\ncycle_limit=0\n"
                 "overhead=0x1.ccccccccccccdp+0\nmc_samples=64\n"
                 "mc_dist=normal\nmc_sigma_latch=0x1.999999999999ap-5\n"
                 "mc_sigma_skew=0x0p+0\nmc_sigma_jitter=0x0p+0\n"
                 "mc_sigma_die=0x0p+0\nmc_seed=16045690984503111693\n"
                 "t_useful=0x1p+3 0x1.8p+2\n"
                 "job=profile\t0\t0\t164.gzip\n",
                 0x4172f3e33e548bfcULL});
    // ... and a trace job plus a profile job, a tenant and Monte Carlo.
    g.push_back({&kSweepCodec, traceRequest().encode(),
                 "model=inorder\npredictor=bimodal\ninstructions=2000\n"
                 "warmup=200\nprewarm=0\ncycle_limit=123456\n"
                 "overhead=0x1.4p+1\ntenant=team-a.b_c\nmc_samples=3\n"
                 "mc_dist=lognormal\nmc_sigma_latch=0x1p-2\n"
                 "mc_sigma_skew=0x0p+0\nmc_sigma_jitter=0x1.8p+0\n"
                 "mc_sigma_die=-0x1p-3\nmc_seed=7\n"
                 "t_useful=0x1p+4 0x1p-1\n"
                 "job=trace\t2\t1000\tmy\\ttrace\t/data/a\\\\b\\n.fo4cap\n"
                 "job=profile\t1\t0\t171.swim\n",
                 0x410ee626cc251707ULL});

    svc::JobStatusInfo status;
    status.id = 77;
    status.state = svc::JobState::Failed;
    status.queuePosition = 3;
    status.cellsTotal = 42;
    status.cellsStarted = 17;
    status.cellsDone = 9;
    status.errorCode = ErrorCode::Deadlock;
    status.errorMessage = "watchdog fired\nat cycle 10";
    g.push_back({&kStatusCodec, status.encode(),
                 "id=77\nstate=Failed\nqueue_position=3\ncells_total=42\n"
                 "cells_started=17\ncells_done=9\nerror_code=Deadlock\n"
                 "error_message=watchdog fired\\nat cycle 10\n",
                 0xa22bad709034776cULL});

    g.push_back({&kStatsCodec, svc::StatsSnapshot{}.encode(),
                 "queue_depth=0\nmax_queue=0\nrunning_jobs=0\n"
                 "running_cells_started=0\nrunning_cells_total=0\n"
                 "submitted=0\nrejected=0\ncompleted=0\nfailed=0\n"
                 "cancelled=0\ncache_bytes=0\ncache_entries=0\n"
                 "latency_buckets=\nlatency_samples=0\n"
                 "latency_mean_ms=0x0p+0\n",
                 0xe0fd98c208bfa4dcULL});
    svc::StatsSnapshot stats;
    stats.queueDepth = 2;
    stats.maxQueue = 8;
    stats.runningJobs = 1;
    stats.runningCellsStarted = 5;
    stats.runningCellsTotal = 12;
    stats.submitted = 10;
    stats.rejected = 3;
    stats.completed = 6;
    stats.failed = 1;
    stats.cancelled = 2;
    stats.cacheBytes = 4096;
    stats.cacheEntries = 4;
    stats.latencyBuckets = {0, 1, 5, 2};
    stats.latencySamples = 8;
    stats.latencyMeanMs = 2.125;
    stats.counters = {{"svc.connections", 4}, {"weird\tname", 9}};
    g.push_back({&kStatsCodec, stats.encode(),
                 "queue_depth=2\nmax_queue=8\nrunning_jobs=1\n"
                 "running_cells_started=5\nrunning_cells_total=12\n"
                 "submitted=10\nrejected=3\ncompleted=6\nfailed=1\n"
                 "cancelled=2\ncache_bytes=4096\ncache_entries=4\n"
                 "latency_buckets=0 1 5 2\nlatency_samples=8\n"
                 "latency_mean_ms=0x1.1p+1\n"
                 "counter=svc.connections\t4\ncounter=weird\\tname\t9\n",
                 0xfcc1363aaf2bf3a5ULL});

    g.push_back({&kHelloCodec,
                 svc::WorkerHelloInfo{.name = "node-a\tx", .threads = 4}
                     .encode(),
                 "name=node-a\\tx\nthreads=4\n", 0x5a0407aff3d4a246ULL});
    g.push_back({&kHelloOkCodec,
                 svc::HelloOkInfo{.workerId = 3,
                                  .heartbeatMs = 250,
                                  .leaseTimeoutMs = 5000}
                     .encode(),
                 "worker_id=3\nheartbeat_ms=250\nlease_timeout_ms=5000\n",
                 0x0929c31ccca408a5ULL});
    g.push_back({&kLeaseCodec,
                 svc::CellLeaseInfo{.sweep = 0x0123456789abcdefULL,
                                    .point = 2,
                                    .job = 1,
                                    .requestBody = kSampleRequestBody}
                     .encode(),
                 "sweep=81985529216486895\npoint=2\njob=1\n"
                 "request=model=ooo\\npredictor=tournament\\n"
                 "instructions=80000\\nwarmup=10000\\nprewarm=500000\\n"
                 "cycle_limit=0\\noverhead=0x1.ccccccccccccdp+0\\n"
                 "t_useful=0x1p+3 0x1.8p+2\\n"
                 "job=profile\\t0\\t0\\t164.gzip\\n\n",
                 0xf1a0a2750c6a00a6ULL});
    // The cell payload is binary: NUL, newline, tab and backslash must
    // cross as bytes (escaped), never cut short at the NUL.
    g.push_back({&kDoneCodec,
                 svc::CellDoneInfo{.workerId = 5,
                                   .sweep = 99,
                                   .point = 0,
                                   .job = 3,
                                   .cellPayload =
                                       std::string("a\0b\nc\td\\e", 9)}
                     .encode(),
                 std::string(kCellDoneGolden, sizeof(kCellDoneGolden) - 1),
                 0xe6a42d309ef019beULL});

    std::vector<svc::WorkerSnapshot> rows(2);
    rows[0] = {.id = 1,
               .name = "w-one",
               .state = svc::WorkerState::Live,
               .activeLeases = 2,
               .cellsCompleted = 17,
               .heartbeatAgeMs = 40};
    rows[1] = {.id = 2,
               .name = "w\ttwo",
               .state = svc::WorkerState::Dead,
               .activeLeases = 0,
               .cellsCompleted = 3,
               .heartbeatAgeMs = 90000};
    g.push_back({&kWorkersCodec, svc::WorkerSnapshot::encodeList(rows),
                 "worker=1\tw-one\tLive\t2\t17\t40\n"
                 "worker=2\tw\\ttwo\tDead\t0\t3\t90000\n",
                 0xbea9ef1b1b0e523dULL});
    g.push_back({&kWorkersCodec, svc::WorkerSnapshot::encodeList({}), "",
                 0xcbf29ce484222325ULL});

    g.push_back({&kPollCodec, svc::PollRequest{.id = 7}.encode(), "id=7\n",
                 0xe56fc625a3346767ULL});
    g.push_back({&kPollCodec,
                 svc::PollRequest{.id = 7, .waitMs = 2500}.encode(),
                 "id=7\nwait_ms=2500\n", 0x60658820d91ea9efULL});

    g.push_back({&kErrorCodec,
                 svc::encodeError(ErrorCode::Overloaded,
                                  "queue full\nretry\\later"),
                 "code=Overloaded\nmessage=queue full\\nretry\\\\later\n",
                 0x8820098449dee26eULL});
    g.push_back({&kSubmitOkCodec, svc::encodeSubmitOk(7, 84),
                 "id=7\ncells_total=84\n", 0x9ded4d9cbd1d6216ULL});
    g.push_back({&kIdCodec, svc::encodeId(918273645), "id=918273645\n",
                 0x1f6ffa76d8c9c342ULL});
    g.push_back({&kWorkerIdCodec, svc::encodeWorkerId(12),
                 "worker_id=12\n", 0x93a065fcd6e496d7ULL});
    g.push_back({&kRetryCodec, svc::encodeRetryMs(200), "retry_ms=200\n",
                 0xd43e2715c1c17ee2ULL});
    g.push_back({&kAcceptedCodec, svc::encodeAccepted(true), "accepted=1\n",
                 0x0197d7af5f1dcaaaULL});
    g.push_back({&kAcceptedCodec, svc::encodeAccepted(false),
                 "accepted=0\n", 0x8e17e64787104c41ULL});
    g.push_back({&kKnownCodec, svc::encodeKnown(true), "known=1\n",
                 0x58f6cc96a57eff32ULL});
    g.push_back({&kKnownCodec, svc::encodeKnown(false), "known=0\n",
                 0xb9c9ea33b609f5d5ULL});
    return g;
}

} // namespace

TEST(SvcGolden, EveryBodyEncodesToItsGoldenBytes)
{
    for (const GoldenBody &g : goldenBodies()) {
        EXPECT_EQ(shown(g.encoded), shown(g.golden)) << g.codec->name;
        // The golden decodes, and what it decodes to encodes back to
        // the same bytes.
        EXPECT_NO_THROW(g.codec->roundTrip(g.golden)) << g.codec->name;
    }
}

TEST(SvcGolden, GoldenBodiesDecodeToTheirFields)
{
    EXPECT_EQ(describe(svc::SweepRequest::decode(kSampleRequestBody)),
              describe(sampleRequest()));
    const std::string traceBody = traceRequest().encode();
    EXPECT_EQ(describe(svc::SweepRequest::decode(traceBody)),
              describe(traceRequest()));
    for (const GoldenBody &g : goldenBodies()) {
        // decode(golden) re-encodes to the golden: each golden is a
        // fixed point of the codec.
        EXPECT_EQ(g.codec->roundTrip(g.golden),
                  g.codec->roundTrip(g.encoded))
            << g.codec->name;
    }
}

// ---------------------------------------------------------------------
// Properties over random messages and mutated golden bodies
// ---------------------------------------------------------------------

namespace
{

/** Random bytes weighted toward what the body grammar cares about:
 *  separators, escapes, digits, letters.  NUL only when asked for. */
std::string
randomText(util::Rng &rng, std::size_t maxLen, bool withNul = false)
{
    static constexpr char kAlphabet[] = "aZ09._- =%x\\\n\t\x7f\xff";
    std::string s;
    const std::size_t n = rng.below(maxLen + 1);
    for (std::size_t i = 0; i < n; ++i) {
        if (withNul && rng.chance(0.1))
            s += '\0';
        else if (rng.chance(0.2))
            s += static_cast<char>(1 + rng.below(255));
        else
            s += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    return s;
}

/** Random text over a restricted charset (raw, unescaped fields). */
std::string
randomWord(util::Rng &rng, const char *charset, std::size_t minLen,
           std::size_t maxLen)
{
    std::string s;
    const std::size_t n = minLen + rng.below(maxLen - minLen + 1);
    for (std::size_t i = 0; i < n; ++i)
        s += charset[rng.below(std::strlen(charset))];
    return s;
}

std::uint64_t
randomU64(util::Rng &rng)
{
    return rng.chance(0.5) ? rng.below(100) : rng.next();
}

/** Any finite double: random bit patterns (subnormals, negatives,
 *  huge exponents) and plain values. */
double
randomDouble(util::Rng &rng)
{
    for (;;) {
        const std::uint64_t bits = rng.next();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof(d));
        if (std::isfinite(d))
            return rng.chance(0.5) ? d : 16.0 * rng.uniform();
    }
}

constexpr const char *kTenantChars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

svc::SweepRequest
randomRequest(util::Rng &rng)
{
    svc::SweepRequest r;
    r.model = rng.chance(0.5) ? "ooo" : "inorder";
    r.predictor = randomWord(rng, "abz_09= ", 0, 12);
    r.instructions = randomU64(rng);
    r.warmup = randomU64(rng);
    r.prewarm = randomU64(rng);
    r.cycleLimit = randomU64(rng);
    r.overheadFo4 = randomDouble(rng);
    if (rng.chance(0.5))
        r.tenant = randomWord(rng, kTenantChars, 1, 64);
    if (rng.chance(0.5)) {
        r.mcSamples = 1 + rng.below(1000);
        r.mcDist = rng.chance(0.5) ? "normal" : "lognormal";
        r.mcSigmaLatch = randomDouble(rng);
        r.mcSigmaSkew = randomDouble(rng);
        r.mcSigmaJitter = randomDouble(rng);
        r.mcSigmaDie = randomDouble(rng);
        r.mcSeed = randomU64(rng);
    }
    const std::size_t points = 1 + rng.below(6);
    for (std::size_t i = 0; i < points; ++i)
        r.tUseful.push_back(randomDouble(rng));
    const std::size_t jobs = 1 + rng.below(4);
    for (std::size_t i = 0; i < jobs; ++i) {
        svc::WireJob j;
        j.name = randomText(rng, 16);
        j.name.insert(0, 1, 'n'); // job names are never empty
        j.cls = static_cast<trace::BenchClass>(rng.below(3));
        j.fromTrace = rng.chance(0.5);
        if (j.fromTrace)
            j.tracePath = randomText(rng, 24);
        j.cycleLimit = randomU64(rng);
        r.jobs.push_back(std::move(j));
    }
    return r;
}

svc::JobStatusInfo
randomStatus(util::Rng &rng)
{
    svc::JobStatusInfo s;
    s.id = randomU64(rng);
    s.state = static_cast<svc::JobState>(rng.below(5));
    s.queuePosition = randomU64(rng);
    s.cellsTotal = randomU64(rng);
    s.cellsStarted = randomU64(rng);
    s.cellsDone = randomU64(rng);
    s.errorCode = static_cast<ErrorCode>(
        rng.below(static_cast<std::uint64_t>(ErrorCode::Internal) + 1));
    s.errorMessage = randomText(rng, 40);
    return s;
}

svc::StatsSnapshot
randomStats(util::Rng &rng)
{
    svc::StatsSnapshot s;
    for (std::uint64_t *v :
         {&s.queueDepth, &s.maxQueue, &s.runningJobs,
          &s.runningCellsStarted, &s.runningCellsTotal, &s.submitted,
          &s.rejected, &s.completed, &s.failed, &s.cancelled,
          &s.cacheBytes, &s.cacheEntries, &s.latencySamples})
        *v = randomU64(rng);
    const std::size_t buckets = rng.below(8);
    for (std::size_t i = 0; i < buckets; ++i)
        s.latencyBuckets.push_back(randomU64(rng));
    s.latencyMeanMs = randomDouble(rng);
    const std::size_t counters = rng.below(5);
    for (std::size_t i = 0; i < counters; ++i)
        s.counters.emplace_back(randomText(rng, 20), randomU64(rng));
    return s;
}

std::vector<svc::WorkerSnapshot>
randomWorkers(util::Rng &rng)
{
    std::vector<svc::WorkerSnapshot> rows(rng.below(5));
    for (auto &w : rows) {
        w.id = randomU64(rng);
        w.name = randomText(rng, 16);
        w.state = static_cast<svc::WorkerState>(rng.below(3));
        w.activeLeases = randomU64(rng);
        w.cellsCompleted = randomU64(rng);
        w.heartbeatAgeMs = randomU64(rng);
    }
    return rows;
}

/** Decode one body through `codec`: its rendered fields, or the code of
 *  the typed error it raised. */
std::string
outcomeOf(const BodyCodec &codec, std::string_view body)
{
    try {
        return util::strprintf("ok %s", codec.roundTrip(body).c_str());
    } catch (const util::SvcError &e) {
        const bool typed =
            e.code() == ErrorCode::Protocol ||
            (codec.capIsInvalidConfig &&
             e.code() == ErrorCode::InvalidConfig);
        EXPECT_TRUE(typed) << codec.name << " " << shown(body) << ": "
                           << e.what();
        return std::string("error ") + util::errorCodeName(e.code());
    }
}

std::uint64_t
fnv1a(std::uint64_t hash, std::string_view bytes)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace

TEST(SvcGolden, RandomMessagesRoundTripFieldByField)
{
    util::Rng rng(0xb0d1e5f04dULL);
    for (int round = 0; round < 300; ++round) {
        const svc::SweepRequest req = randomRequest(rng);
        EXPECT_EQ(describe(svc::SweepRequest::decode(req.encode())),
                  describe(req))
            << round;

        const svc::JobStatusInfo status = randomStatus(rng);
        EXPECT_EQ(describe(svc::JobStatusInfo::decode(status.encode())),
                  describe(status))
            << round;

        const svc::StatsSnapshot stats = randomStats(rng);
        EXPECT_EQ(describe(svc::StatsSnapshot::decode(stats.encode())),
                  describe(stats))
            << round;

        const svc::WorkerHelloInfo hello{.name = randomText(rng, 20),
                                         .threads = 1 + rng.below(64)};
        EXPECT_EQ(describe(svc::WorkerHelloInfo::decode(hello.encode())),
                  describe(hello))
            << round;

        const svc::HelloOkInfo ok{.workerId = randomU64(rng),
                                  .heartbeatMs = randomU64(rng),
                                  .leaseTimeoutMs = randomU64(rng)};
        EXPECT_EQ(describe(svc::HelloOkInfo::decode(ok.encode())),
                  describe(ok))
            << round;

        const svc::CellLeaseInfo lease{.sweep = randomU64(rng),
                                       .point = randomU64(rng),
                                       .job = randomU64(rng),
                                       .requestBody = req.encode()};
        EXPECT_EQ(describe(svc::CellLeaseInfo::decode(lease.encode())),
                  describe(lease))
            << round;

        const svc::CellDoneInfo done{.workerId = randomU64(rng),
                                     .sweep = randomU64(rng),
                                     .point = randomU64(rng),
                                     .job = randomU64(rng),
                                     .cellPayload =
                                         randomText(rng, 64, true)};
        EXPECT_EQ(describe(svc::CellDoneInfo::decode(done.encode())),
                  describe(done))
            << round;

        const auto rows = randomWorkers(rng);
        EXPECT_EQ(describe(svc::WorkerSnapshot::decodeList(
                      svc::WorkerSnapshot::encodeList(rows))),
                  describe(rows))
            << round;

        const svc::PollRequest poll{
            .id = randomU64(rng),
            .waitMs = rng.chance(0.5) ? 0 : rng.below(svc::kMaxPollWaitMs + 1)};
        EXPECT_EQ(describe(svc::PollRequest::decode(poll.encode())),
                  describe(poll))
            << round;

        const auto code = static_cast<ErrorCode>(
            rng.below(static_cast<std::uint64_t>(ErrorCode::Internal) + 1));
        const std::string message = randomText(rng, 40);
        EXPECT_EQ(svc::decodeError(svc::encodeError(code, message)),
                  std::make_pair(code, message))
            << round;

        const std::uint64_t a = randomU64(rng);
        const std::uint64_t b = randomU64(rng);
        EXPECT_EQ(svc::decodeSubmitOk(svc::encodeSubmitOk(a, b)),
                  std::make_pair(a, b));
        EXPECT_EQ(svc::decodeId(svc::encodeId(a)), a);
        EXPECT_EQ(svc::decodeWorkerId(svc::encodeWorkerId(a)), a);
        EXPECT_EQ(svc::decodeRetryMs(svc::encodeRetryMs(b)), b);
        const bool flag = rng.chance(0.5);
        EXPECT_EQ(svc::decodeAccepted(svc::encodeAccepted(flag)), flag);
        EXPECT_EQ(svc::decodeKnown(svc::encodeKnown(flag)), flag);
    }
}

TEST(SvcGolden, EveryOneByteMutationIsTypedOrReEncodes)
{
    // Substitute every other byte value at every position of every
    // golden body.  Each mutant must be refused with a typed error
    // (Protocol; InvalidConfig only for the Poll wait_ms cap) or decode
    // to a message that encodes again.  The digest of all outcomes —
    // error codes and decoded fields, not messages — pins which mutants
    // a decoder accepts and what it makes of them.
    for (const GoldenBody &g : goldenBodies()) {
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        std::size_t refused = 0;
        std::string body = g.golden;
        for (std::size_t pos = 0; pos < body.size(); ++pos) {
            const char original = body[pos];
            for (int b = 0; b < 256; ++b) {
                if (static_cast<char>(b) == original)
                    continue;
                body[pos] = static_cast<char>(b);
                const std::string outcome = outcomeOf(*g.codec, body);
                refused += outcome.rfind("error ", 0) == 0;
                digest = fnv1a(digest, outcome);
                digest = fnv1a(digest, "\n");
            }
            body[pos] = original;
        }
        EXPECT_EQ(digest, g.mutationDigest)
            << g.codec->name << " " << shown(g.golden) << ": "
            << util::strprintf("0x%016llxULL",
                               static_cast<unsigned long long>(digest))
            << ", " << refused << " of " << 255 * body.size()
            << " mutants refused";
    }
}

TEST(SvcBodies, SubmitOkWithoutIdIsRefused)
{
    // A SubmitOk that names no job must not decode to job 0, which a
    // client would then poll and fetch.
    for (const char *body : {"", "cells_total=84\n", "\n\n"}) {
        try {
            svc::decodeSubmitOk(body);
            FAIL() << "accepted: " << body;
        } catch (const util::SvcError &e) {
            EXPECT_EQ(e.code(), ErrorCode::Protocol) << body;
        }
    }
    EXPECT_EQ(svc::decodeSubmitOk("id=0\n"), std::make_pair(0ul, 0ul));
}
