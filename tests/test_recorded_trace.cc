/**
 * @file
 * Replaying captures through trace::RecordedTrace: exact round trips,
 * cycling and rewinding, typed load errors, and a replay driving a
 * core to the live generator's results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/core.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "util/status.hh"

using namespace fo4::trace;
using fo4::util::ErrorCode;
using fo4::util::TraceError;

namespace
{

/** Temporary file path scoped to a test. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "/" + name)
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Capture the first `count` ops of `source` at `path`. */
void
recordOps(const std::string &path, TraceSource &source, int count)
{
    auto writer = CaptureWriter::create(path);
    for (int i = 0; i < count; ++i)
        writer.append(source.next());
    writer.close();
}

ErrorCode
loadError(const std::string &path)
{
    try {
        RecordedTrace t(path);
    } catch (const TraceError &e) {
        return e.code();
    }
    return ErrorCode::Ok;
}

} // namespace

TEST(RecordedTrace, RoundTripsExactly)
{
    TempFile tmp("roundtrip.fo4cap");
    auto prof = spec2000Profile("164.gzip");
    SyntheticTraceGenerator gen(prof);
    recordOps(tmp.path(), gen, 5000);

    RecordedTrace replay(tmp.path());
    ASSERT_EQ(replay.recordedInstructions(), 5000u);

    gen.reset();
    for (int i = 0; i < 5000; ++i) {
        const auto a = gen.next();
        const auto b = replay.next();
        ASSERT_EQ(a.seq, b.seq) << "at " << i;
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.cls, b.cls);
        ASSERT_EQ(a.src1, b.src1);
        ASSERT_EQ(a.src2, b.src2);
        ASSERT_EQ(a.dst, b.dst);
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.taken, b.taken);
    }
}

TEST(RecordedTrace, CyclesWithRenumberedSequence)
{
    TempFile tmp("cycle.fo4cap");
    auto prof = spec2000Profile("171.swim");
    SyntheticTraceGenerator gen(prof);
    recordOps(tmp.path(), gen, 100);

    RecordedTrace replay(tmp.path());
    for (std::uint64_t i = 0; i < 250; ++i)
        EXPECT_EQ(replay.next().seq, i);
}

TEST(RecordedTrace, ResetRewinds)
{
    TempFile tmp("reset.fo4cap");
    auto prof = spec2000Profile("176.gcc");
    SyntheticTraceGenerator gen(prof);
    recordOps(tmp.path(), gen, 200);

    RecordedTrace replay(tmp.path());
    const auto first = replay.next();
    for (int i = 0; i < 57; ++i)
        replay.next();
    replay.reset();
    const auto again = replay.next();
    EXPECT_EQ(first.seq, again.seq);
    EXPECT_EQ(first.pc, again.pc);
    EXPECT_EQ(first.cls, again.cls);
    EXPECT_EQ(first.addr, again.addr);
}

TEST(RecordedTrace, RejectsGarbageFiles)
{
    TempFile tmp("garbage.fo4cap");
    std::ofstream(tmp.path(), std::ios::binary)
        << "this is definitely not a trace file";
    try {
        RecordedTrace t(tmp.path());
        FAIL() << "garbage file accepted";
    } catch (const TraceError &e) {
        EXPECT_EQ(e.code(), ErrorCode::TraceFormat);
        EXPECT_NE(std::string(e.what()).find("not a capture file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RecordedTrace, RejectsMissingFiles)
{
    EXPECT_EQ(loadError("/nonexistent/path/x.fo4cap"), ErrorCode::TraceIo);
}

TEST(RecordedTrace, RejectsTheRetiredFlatFormat)
{
    // A hand-written file in the retired flat FO4TRACE format: 16-byte
    // header ("FO4TRACE", u32 version 1, u32 record size 32) and one
    // 32-byte record.  It is not a capture, so it is a typed format
    // error — never replayed, never a crash.
    std::string bytes = "FO4TRACE";
    const unsigned char words[8] = {1, 0, 0, 0, 32, 0, 0, 0};
    bytes.append(reinterpret_cast<const char *>(words), sizeof(words));
    bytes.append(32, '\0');
    TempFile tmp("flat.fo4t");
    std::ofstream(tmp.path(), std::ios::binary) << bytes;
    EXPECT_EQ(loadError(tmp.path()), ErrorCode::TraceFormat);
}

TEST(RecordedTrace, LoadReturnsStatusInsteadOfThrowing)
{
    const auto missing = RecordedTrace::load("/nonexistent/path/x.fo4cap");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), ErrorCode::TraceIo);

    TempFile tmp("load_ok.fo4cap");
    auto prof = spec2000Profile("164.gzip");
    SyntheticTraceGenerator gen(prof);
    recordOps(tmp.path(), gen, 64);
    auto loaded = RecordedTrace::load(tmp.path());
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(loaded.value().recordedInstructions(), 64u);
}

TEST(RecordedTrace, DrivesTheCore)
{
    // A recorded trace must produce the same simulation results as the
    // live generator it captured.
    TempFile tmp("sim.fo4cap");
    auto prof = spec2000Profile("300.twolf");
    SyntheticTraceGenerator gen(prof);
    recordOps(tmp.path(), gen, 30000);

    auto core = fo4::core::makeOooCore(
        fo4::core::CoreParams::alpha21264(), "tournament");
    gen.reset();
    const auto live = core->run(gen, 20000);

    RecordedTrace replay(tmp.path());
    const auto replayed = core->run(replay, 20000);

    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.mispredicts, replayed.mispredicts);
    EXPECT_EQ(live.dl1Misses, replayed.dl1Misses);
}
