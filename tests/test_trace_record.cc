/**
 * @file
 * Adversarial validation of the capture container (trace/capture.hh)
 * and its recording/replay machinery — DESIGN.md §16.
 *
 * The format's promise is that no damaged file ever replays silently:
 * every byte of a capture is either CRC-protected (bit rot throws a
 * typed TraceError), structurally implied (truncation is reported as a
 * torn tail and refused by RecordedTrace), or explicitly reserved.
 * These tests earn that promise the hard way — truncating a capture at
 * every byte boundary, flipping every byte, and hand-crafting each row
 * of the corruption ladder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/params.hh"
#include "study/goldengen.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "trace/recorder.hh"
#include "trace/spec2000.hh"
#include "trace/trace_codec.hh"
#include "util/durable_file.hh"
#include "util/random.hh"
#include "util/status.hh"

using namespace fo4;
using fo4::util::Rng;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(f), {});
}

void
writeBytes(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
}

bool
sameOp(const isa::MicroOp &a, const isa::MicroOp &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.cls == b.cls &&
           a.src1 == b.src1 && a.src2 == b.src2 && a.dst == b.dst &&
           a.addr == b.addr && a.taken == b.taken;
}

/** Deterministic valid ops; seq equals stream position, like every
 *  repo trace source. */
std::vector<isa::MicroOp>
makeOps(std::size_t n)
{
    Rng rng(0xF04CA0 + n);
    std::vector<isa::MicroOp> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
        isa::MicroOp &op = ops[i];
        op.seq = i;
        op.pc = 0x400000 + 4 * i;
        op.cls = static_cast<isa::OpClass>(rng.below(isa::numOpClasses));
        op.src1 = static_cast<std::int16_t>(
            static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
        op.src2 = static_cast<std::int16_t>(
            static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
        op.dst = static_cast<std::int16_t>(
            static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
        op.addr = rng.below(1u << 20);
        op.taken = rng.chance(0.5);
    }
    return ops;
}

void
writeCaptureFile(const std::string &path,
                 const std::vector<isa::MicroOp> &ops,
                 const trace::CaptureMeta &meta, std::size_t opsPerFrame)
{
    auto writer = trace::CaptureWriter::create(path, meta, opsPerFrame);
    for (const auto &op : ops)
        writer.append(op);
    writer.close();
}

// ---- hand-crafting helpers (mirror the documented byte layout) ------

void
putU32(std::vector<unsigned char> &out, std::size_t at, std::uint32_t v)
{
    out[at] = static_cast<unsigned char>(v);
    out[at + 1] = static_cast<unsigned char>(v >> 8);
    out[at + 2] = static_cast<unsigned char>(v >> 16);
    out[at + 3] = static_cast<unsigned char>(v >> 24);
}

/** The 32-byte capture header: magic, version, flags, CRC of [0,24). */
std::vector<unsigned char>
craftHeader()
{
    std::vector<unsigned char> h(32, 0);
    std::memcpy(h.data(), "FO4CAPTR", 8);
    putU32(h, 8, trace::kCaptureVersion);
    putU32(h, 24, util::crc32(h.data(), 24));
    return h;
}

/** Appends `u32 len | u32 crc | kind body` with a *correct* CRC. */
void
craftFrame(std::vector<unsigned char> &out, char kind,
           const std::vector<unsigned char> &body)
{
    std::vector<unsigned char> payload;
    payload.push_back(static_cast<unsigned char>(kind));
    payload.insert(payload.end(), body.begin(), body.end());
    const std::size_t head = out.size();
    out.resize(out.size() + 8);
    putU32(out, head, static_cast<std::uint32_t>(payload.size()));
    putU32(out, head + 4, util::crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<unsigned char>
craftEndBody(std::uint64_t count)
{
    std::vector<unsigned char> body(8, 0);
    putU32(body, 0, static_cast<std::uint32_t>(count));
    putU32(body, 4, static_cast<std::uint32_t>(count >> 32));
    return body;
}

std::vector<unsigned char>
craftRecordBytes(const isa::MicroOp &op)
{
    std::vector<unsigned char> bytes(sizeof(trace::TraceRecord));
    trace::encodeTraceRecord(trace::packTraceRecord(op), bytes.data());
    return bytes;
}

std::vector<unsigned char>
craftMetaBody(const std::string &text)
{
    return std::vector<unsigned char>(text.begin(), text.end());
}

/** Expect fn to throw TraceError with `code`, returning its message. */
template <typename Fn>
std::string
expectTraceError(Fn &&fn, util::ErrorCode code, const char *what)
{
    try {
        fn();
    } catch (const util::TraceError &e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
        return e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": wrong exception type: " << e.what();
        return "";
    }
    ADD_FAILURE() << what << ": no exception thrown";
    return "";
}

/** Clears the disk-fault hook even when a test assertion bails out. */
struct ScopedDiskFault
{
    explicit ScopedDiskFault(util::DiskFaultHook hook)
    {
        util::setDiskFaultHook(std::move(hook));
    }
    ~ScopedDiskFault() { util::setDiskFaultHook(nullptr); }
};

} // namespace

TEST(TraceRecord, WriterRoundTripPreservesOpsAndMeta)
{
    const std::string path = tmpPath("roundtrip.fo4cap");
    const auto ops = makeOps(40);
    const trace::CaptureMeta meta = {{"benchmark", "164.gzip"},
                                     {"instructions", "1500"},
                                     {"model", "ooo"}};
    // opsPerFrame=16 forces multiple 'O' frames (16+16+8 records).
    writeCaptureFile(path, ops, meta, 16);

    const auto contents = trace::readCapture(path);
    EXPECT_TRUE(contents.finalized);
    EXPECT_FALSE(contents.tornTail);
    EXPECT_EQ(contents.meta, meta);
    ASSERT_EQ(contents.ops.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_TRUE(sameOp(contents.ops[i], ops[i])) << "op " << i;

    trace::RecordedTrace replay(path);
    EXPECT_EQ(replay.recordedInstructions(), ops.size());
    EXPECT_EQ(replay.metaValue("benchmark"), "164.gzip");
    EXPECT_EQ(replay.metaValue("missing", "fallback"), "fallback");
    // Replay cycles past the end with seq renumbered by position.
    for (std::size_t i = 0; i < 2 * ops.size(); ++i) {
        const auto op = replay.next();
        EXPECT_EQ(op.seq, i) << "cycled seq must keep counting";
        EXPECT_EQ(op.pc, ops[i % ops.size()].pc) << "op " << i;
    }
    std::remove(path.c_str());
}

TEST(TraceRecord, CommittedCapturesReRecordByteForByte)
{
    // Each committed capture carries the metadata of the run that made
    // it; recording that run again must reproduce the file exactly —
    // header, frame layout, record encoding and all.
    for (const char *name : {"164.gzip", "171.swim", "176.gcc"}) {
        const std::string committed =
            std::string(FO4_SOURCE_DIR) + "/tests/data/" + name + ".fo4cap";
        const trace::RecordedTrace capture(committed);
        study::CaptureRequest request;
        request.profile =
            trace::spec2000Profile(capture.metaValue("benchmark"));
        request.params = core::CoreParams::alpha21264();
        request.spec = study::specFromCaptureMeta(capture);
        request.margin = std::stoull(capture.metaValue("margin"));
        const std::string out =
            tmpPath(std::string("rerecord_") + name + ".fo4cap");
        study::recordCapture(out, request);
        EXPECT_TRUE(readBytes(out) == readBytes(committed)) << name;
        std::remove(out.c_str());
    }
}

TEST(TraceRecord, PublicationIsAtomic)
{
    const std::string path = tmpPath("atomic.fo4cap");
    writeCaptureFile(path, makeOps(4), {}, 16);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(util::AtomicFile::tmpPathFor(path)))
        << "close() must rename the tmp file away";
    std::remove(path.c_str());

    // A writer destroyed without close() publishes nothing — not the
    // final path, and not a stale tmp file either.
    const std::string aborted = tmpPath("aborted.fo4cap");
    {
        auto writer = trace::CaptureWriter::create(aborted, {}, 16);
        writer.append(makeOps(1)[0]);
        EXPECT_TRUE(fileExists(util::AtomicFile::tmpPathFor(aborted)));
    }
    EXPECT_FALSE(fileExists(aborted));
    EXPECT_FALSE(fileExists(util::AtomicFile::tmpPathFor(aborted)));
}

TEST(TraceRecord, EmptyCaptureIsRefused)
{
    const std::string path = tmpPath("empty.fo4cap");
    auto writer = trace::CaptureWriter::create(path, {}, 16);
    EXPECT_THROW(writer.close(), util::ConfigError);
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(util::AtomicFile::tmpPathFor(path)));
}

TEST(TraceRecord, WriterRefusesFramesItsReaderRefuses)
{
    // An op frame is the kind byte plus opsPerFrame packed records; a
    // batch that would exceed kMaxCaptureFrame is refused up front
    // rather than published as a capture readCapture() rejects.
    const std::size_t fits =
        (trace::kMaxCaptureFrame - 1) / sizeof(trace::TraceRecord);
    const std::string path = tmpPath("bigframe.fo4cap");
    EXPECT_THROW(trace::CaptureWriter::create(path, {}, fits + 1),
                 util::ConfigError);
    EXPECT_THROW(trace::CaptureWriter::create(path, {}, 40000),
                 util::ConfigError);
    EXPECT_FALSE(fileExists(path));

    // The largest batch that fits round-trips in one frame.
    const auto ops = makeOps(fits);
    writeCaptureFile(path, ops, {}, fits);
    const auto contents = trace::readCapture(path);
    EXPECT_TRUE(contents.finalized);
    EXPECT_EQ(contents.ops.size(), fits);
    std::remove(path.c_str());
}

TEST(TraceRecord, TruncationAtEveryByteIsNeverReplayable)
{
    const std::string whole = tmpPath("trunc_whole.fo4cap");
    const std::string cut = tmpPath("trunc_cut.fo4cap");
    const auto ops = makeOps(40);
    writeCaptureFile(whole, ops, {{"benchmark", "164.gzip"}}, 16);
    const auto bytes = readBytes(whole);
    ASSERT_GT(bytes.size(), 32u);

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(cut, std::vector<unsigned char>(bytes.begin(),
                                                   bytes.begin() + len));
        if (len < 32) {
            // Shorter than the header: not even a capture skeleton.
            expectTraceError([&] { trace::readCapture(cut); },
                             util::ErrorCode::TraceFormat,
                             "header prefix");
        } else {
            // Torn-tail salvage: readCapture recovers the valid frame
            // prefix and reports what is missing...
            trace::CaptureContents contents;
            ASSERT_NO_THROW(contents = trace::readCapture(cut))
                << "len=" << len;
            ASSERT_FALSE(contents.finalized) << "len=" << len;
            ASSERT_LE(contents.ops.size(), ops.size()) << "len=" << len;
            for (std::size_t i = 0; i < contents.ops.size(); ++i)
                ASSERT_TRUE(sameOp(contents.ops[i], ops[i]))
                    << "len=" << len << " op=" << i;
        }
        // ...but replaying any truncation is refused: simulating a
        // shortened stream would silently diverge from the recording.
        EXPECT_THROW(trace::RecordedTrace{cut}, util::TraceError)
            << "len=" << len;
    }
    std::remove(whole.c_str());
    std::remove(cut.c_str());
}

TEST(TraceRecord, BitRotNeverYieldsSilentlyDifferentData)
{
    const std::string whole = tmpPath("rot_whole.fo4cap");
    const std::string rotted = tmpPath("rot_flip.fo4cap");
    const auto ops = makeOps(20);
    const trace::CaptureMeta meta = {{"benchmark", "176.gcc"}};
    writeCaptureFile(whole, ops, meta, 8);
    const auto bytes = readBytes(whole);

    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto flipped = bytes;
        flipped[i] ^= 0xFF;
        writeBytes(rotted, flipped);

        // Every flip must be (a) caught with a typed error, (b) mapped
        // to a salvageable torn tail that replay then refuses, or
        // (c) provably harmless — a reserved byte whose decode is
        // bit-identical to the original.  Never: silently different.
        trace::CaptureContents contents;
        try {
            contents = trace::readCapture(rotted);
        } catch (const util::TraceError &) {
            continue; // (a)
        }
        if (!contents.finalized) { // (b)
            EXPECT_THROW(trace::RecordedTrace{rotted}, util::TraceError)
                << "byte " << i;
            continue;
        }
        ASSERT_EQ(contents.meta, meta) << "byte " << i; // (c)
        ASSERT_EQ(contents.ops.size(), ops.size()) << "byte " << i;
        for (std::size_t k = 0; k < ops.size(); ++k)
            ASSERT_TRUE(sameOp(contents.ops[k], ops[k]))
                << "byte " << i << " op " << k;
    }
    std::remove(whole.c_str());
    std::remove(rotted.c_str());
}

TEST(TraceRecord, VersionSkewIsAFormatErrorNotBitRot)
{
    const std::string path = tmpPath("version_skew.fo4cap");
    writeCaptureFile(path, makeOps(4), {}, 16);
    auto bytes = readBytes(path);
    bytes[8] = 2; // version field; deliberately *without* fixing the
                  // header CRC — skew must be diagnosed before rot.
    writeBytes(path, bytes);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceFormat,
        "version skew");
    EXPECT_NE(message.find("unsupported version 2"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, HeaderCrcMismatchIsCorrupt)
{
    const std::string path = tmpPath("header_rot.fo4cap");
    writeCaptureFile(path, makeOps(4), {}, 16);
    auto bytes = readBytes(path);
    bytes[13] ^= 0x40; // flags field: covered by the header CRC
    writeBytes(path, bytes);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "header rot");
    EXPECT_NE(message.find("header CRC mismatch"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, ImplausibleFrameLengthRefusedBeforeAllocation)
{
    const std::string path = tmpPath("oversize.fo4cap");
    writeCaptureFile(path, makeOps(4), {}, 16);
    const auto bytes = readBytes(path);

    // An oversize length must not be misread as a torn tail (the file
    // *is* shorter than the declared frame) — and must be refused
    // before it can drive a giant allocation.
    auto oversize = bytes;
    putU32(oversize, 32, trace::kMaxCaptureFrame + 1);
    writeBytes(path, oversize);
    auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "oversize frame");
    EXPECT_NE(message.find("refused before allocation"), std::string::npos)
        << message;

    auto zero = bytes;
    putU32(zero, 32, 0);
    writeBytes(path, zero);
    message = expectTraceError([&] { trace::readCapture(path); },
                               util::ErrorCode::TraceCorrupt,
                               "zero-length frame");
    EXPECT_NE(message.find("refused before allocation"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, StrayBytesInOpFrameAreCorrupt)
{
    // A frame whose body is not a whole number of records was cut
    // mid-record; silently dropping the tail would replay a different
    // stream than was recorded.
    const auto ops = makeOps(1);
    auto body = craftRecordBytes(ops[0]);
    body.push_back(0xAB); // 33 bytes: one record plus one stray

    auto capture = craftHeader();
    craftFrame(capture, 'M', craftMetaBody("benchmark=x\n"));
    craftFrame(capture, 'O', body);
    craftFrame(capture, 'E', craftEndBody(1));
    const std::string path = tmpPath("stray.fo4cap");
    writeBytes(path, capture);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "stray bytes");
    EXPECT_NE(message.find("1 stray bytes after 1 complete records"),
              std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, InvalidRecordsAreCorrupt)
{
    // A record with op class 0xEE, behind a *valid* frame CRC — the
    // codec's range check is the last line of defense.
    auto bad = makeOps(1)[0];
    auto body = craftRecordBytes(bad);
    body[30] = 0xEE; // cls byte of the packed record
    auto capture = craftHeader();
    craftFrame(capture, 'O', body);
    craftFrame(capture, 'E', craftEndBody(1));
    const std::string path = tmpPath("badcls.fo4cap");
    writeBytes(path, capture);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "bad class");
    EXPECT_NE(message.find("record 0 has op class 238 out of range"),
              std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, EndFrameCountMismatchIsCorrupt)
{
    auto capture = craftHeader();
    craftFrame(capture, 'O', craftRecordBytes(makeOps(1)[0]));
    craftFrame(capture, 'E', craftEndBody(3)); // lies: only 1 written
    const std::string path = tmpPath("count_lie.fo4cap");
    writeBytes(path, capture);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "count mismatch");
    EXPECT_NE(message.find("end frame declares 3 records but 1 were read"),
              std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, FramesAfterTheEndFrameAreCorrupt)
{
    auto capture = craftHeader();
    craftFrame(capture, 'O', craftRecordBytes(makeOps(1)[0]));
    craftFrame(capture, 'E', craftEndBody(1));
    craftFrame(capture, 'M', craftMetaBody("late=frame\n"));
    const std::string path = tmpPath("late_frame.fo4cap");
    writeBytes(path, capture);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "frame after end");
    EXPECT_NE(message.find("follows the end frame"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, UnknownFrameKindIsCorrupt)
{
    auto capture = craftHeader();
    craftFrame(capture, 'Z', craftMetaBody("mystery"));
    const std::string path = tmpPath("unknown_kind.fo4cap");
    writeBytes(path, capture);
    const auto message = expectTraceError(
        [&] { trace::readCapture(path); }, util::ErrorCode::TraceCorrupt,
        "unknown kind");
    EXPECT_NE(message.find("unknown frame kind"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, MalformedMetaLinesAreCorrupt)
{
    const std::string path = tmpPath("bad_meta.fo4cap");
    const char *const badMetas[] = {
        "noequalsign\n",   // no '='
        "=orphanvalue\n",  // empty key
        "key=unterminated" // text not ending in a newline
    };
    for (const char *text : badMetas) {
        auto capture = craftHeader();
        craftFrame(capture, 'M', craftMetaBody(text));
        craftFrame(capture, 'O', craftRecordBytes(makeOps(1)[0]));
        craftFrame(capture, 'E', craftEndBody(1));
        writeBytes(path, capture);
        const auto message = expectTraceError(
            [&] { trace::readCapture(path); },
            util::ErrorCode::TraceCorrupt, text);
        EXPECT_NE(message.find("malformed meta frame line"),
                  std::string::npos)
            << message;
    }
    std::remove(path.c_str());
}

TEST(TraceRecord, FinalizedButEmptyCaptureIsRefusedByReplay)
{
    // The writer refuses to record zero ops, but a crafted file can
    // still claim it; replay must refuse it.
    auto capture = craftHeader();
    craftFrame(capture, 'M', craftMetaBody("benchmark=void\n"));
    craftFrame(capture, 'E', craftEndBody(0));
    const std::string path = tmpPath("void.fo4cap");
    writeBytes(path, capture);

    const auto contents = trace::readCapture(path);
    EXPECT_TRUE(contents.finalized);
    EXPECT_TRUE(contents.ops.empty());
    const auto message = expectTraceError(
        [&] { trace::RecordedTrace rt(path); },
        util::ErrorCode::TraceCorrupt, "empty replay");
    EXPECT_NE(message.find("contains no instructions"), std::string::npos)
        << message;
    std::remove(path.c_str());
}

TEST(TraceRecord, RecorderVerifiesTheRetiredStream)
{
    auto prof = trace::spec2000Profile("164.gzip");
    trace::Recorder recorder(
        std::make_unique<trace::SyntheticTraceGenerator>(prof));

    std::vector<isa::MicroOp> pulled;
    for (int i = 0; i < 5; ++i)
        pulled.push_back(recorder.next());

    recorder.onRetire(pulled[0]); // in-order retirement verifies
    isa::MicroOp wrong = pulled[1];
    wrong.dst = wrong.dst == 3 ? 4 : 3;
    const auto message = expectTraceError(
        [&] { recorder.onRetire(wrong); }, util::ErrorCode::TraceCorrupt,
        "retire divergence");
    EXPECT_NE(message.find("recorder divergence at op 1"),
              std::string::npos)
        << message;

    // Retiring past the capture is equally a divergence, not a crash.
    trace::Recorder fresh(
        std::make_unique<trace::SyntheticTraceGenerator>(prof));
    EXPECT_THROW(fresh.onRetire(pulled[0]), util::TraceError);
}

TEST(TraceRecord, RecorderReplaysItsCaptureOnReset)
{
    auto prof = trace::spec2000Profile("171.swim");
    trace::Recorder recorder(
        std::make_unique<trace::SyntheticTraceGenerator>(prof));

    std::vector<isa::MicroOp> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(recorder.next());
    ASSERT_EQ(recorder.captured().size(), 10u);

    // reset() rewinds the replay cursor; the second pass must see the
    // identical stream without extending the capture.
    recorder.reset();
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(sameOp(recorder.next(), first[i])) << "op " << i;
    EXPECT_EQ(recorder.captured().size(), 10u);

    // Pulling past the high-water mark extends it; pad() extends it by
    // a margin without touching the cursor.
    recorder.next();
    EXPECT_EQ(recorder.captured().size(), 11u);
    recorder.pad(5);
    EXPECT_EQ(recorder.captured().size(), 16u);
}

TEST(TraceRecord, InjectedDiskFaultPublishesNothing)
{
    const std::string path = tmpPath("faulty.fo4cap");

    // ENOSPC on the very first write (the header): create() throws the
    // typed I/O error and leaves no file behind.
    {
        ScopedDiskFault guard(
            [](const std::string &p) -> std::optional<util::DiskFault> {
                if (p.find("faulty.fo4cap") != std::string::npos)
                    return util::DiskFault{};
                return std::nullopt;
            });
        EXPECT_THROW(trace::CaptureWriter::create(path, {}, 16),
                     util::TraceError);
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(util::AtomicFile::tmpPathFor(path)));

    // ENOSPC mid-recording: the append that flushes a frame throws and
    // the writer abandons its tmp file.
    {
        auto writer = trace::CaptureWriter::create(path, {}, 2);
        const auto ops = makeOps(4);
        writer.append(ops[0]);
        ScopedDiskFault guard(
            [](const std::string &p) -> std::optional<util::DiskFault> {
                if (p.find("faulty.fo4cap") != std::string::npos)
                    return util::DiskFault{};
                return std::nullopt;
            });
        EXPECT_THROW(
            {
                writer.append(ops[1]); // reaches opsPerFrame: flushes
            },
            util::TraceError);
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(util::AtomicFile::tmpPathFor(path)));
}
