/**
 * @file
 * Tests for the recoverable-error subsystem: Status, ErrorCollector,
 * Expected, the SimError hierarchy, the top-level CLI handler and the
 * config-key spell check.
 */

#include <gtest/gtest.h>

#include "core/params.hh"
#include "mem/cache.hh"
#include "tech/clocking.hh"
#include "util/config.hh"
#include "util/status.hh"

using namespace fo4::util;

TEST(Status, DefaultIsOk)
{
    Status st;
    EXPECT_TRUE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::Ok);
    EXPECT_EQ(st.toString(), "ok");
}

TEST(Status, CarriesCodeAndMessage)
{
    Status st(ErrorCode::TraceCorrupt, "bit rot");
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::TraceCorrupt);
    EXPECT_EQ(st.message(), "bit rot");
    EXPECT_EQ(st.toString(), "[TraceCorrupt] bit rot");
}

TEST(Status, EveryCodeHasAName)
{
    for (const auto code :
         {ErrorCode::Ok, ErrorCode::InvalidConfig, ErrorCode::UnknownKey,
          ErrorCode::TraceIo, ErrorCode::TraceFormat,
          ErrorCode::TraceCorrupt, ErrorCode::Deadlock,
          ErrorCode::JournalIo, ErrorCode::JournalFormat,
          ErrorCode::JournalCorrupt, ErrorCode::ResumeMismatch,
          ErrorCode::Cancelled, ErrorCode::Internal}) {
        EXPECT_NE(errorCodeName(code), nullptr);
        EXPECT_STRNE(errorCodeName(code), "");
    }
}

TEST(ErrorCollector, EmptyCollectorIsOk)
{
    ErrorCollector errs;
    EXPECT_TRUE(errs.empty());
    EXPECT_TRUE(errs.status(ErrorCode::InvalidConfig).isOk());
}

TEST(ErrorCollector, AccumulatesAndJoins)
{
    ErrorCollector errs;
    errs.addf("first problem (%d)", 1);
    errs.addf("second problem (%s)", "two");
    EXPECT_EQ(errs.count(), 2u);
    const auto st = errs.status(ErrorCode::InvalidConfig);
    EXPECT_EQ(st.code(), ErrorCode::InvalidConfig);
    EXPECT_NE(st.message().find("first problem (1)"), std::string::npos);
    EXPECT_NE(st.message().find("second problem (two)"),
              std::string::npos);
}

TEST(SimErrorHierarchy, CodesAndCatchability)
{
    try {
        throw ConfigError("bad knob");
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
        EXPECT_STREQ(e.what(), "bad knob");
        EXPECT_EQ(e.toStatus().code(), ErrorCode::InvalidConfig);
    }
    try {
        throw TraceError(ErrorCode::TraceIo, "unreadable");
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "unreadable");
    }
}

TEST(SimErrorHierarchy, DeadlockErrorCarriesDump)
{
    DeadlockDump dump;
    dump.model = "out-of-order";
    dump.cycle = 12345;
    dump.cycleLimit = 12345;
    dump.committed = 7;
    dump.target = 1000;
    dump.robOccupancy = 64;
    dump.oldestStalled = "load seq=8";
    const DeadlockError err(dump);
    EXPECT_EQ(err.code(), ErrorCode::Deadlock);
    const std::string text = err.what();
    EXPECT_NE(text.find("out-of-order"), std::string::npos);
    EXPECT_NE(text.find("load seq=8"), std::string::npos);
    EXPECT_EQ(err.dump().robOccupancy, 64u);
}

TEST(Expected, HoldsValueOrStatus)
{
    Expected<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_TRUE(good.status().isOk());

    Expected<int> bad(Status(ErrorCode::TraceIo, "gone"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::TraceIo);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

TEST(RunTopLevel, MapsOutcomesToExitCodes)
{
    EXPECT_EQ(runTopLevel([] { return 0; }), 0);
    EXPECT_EQ(runTopLevel([] { return 3; }), 3);
    EXPECT_EQ(runTopLevel([]() -> int {
                  throw ConfigError("nope");
              }),
              1);
    EXPECT_EQ(runTopLevel([]() -> int {
                  throw std::runtime_error("surprise");
              }),
              2);
    // 128 + SIGINT: a cancelled run is resumable, not failed, and
    // scripts can tell the difference.
    EXPECT_EQ(runTopLevel([]() -> int {
                  throw CancelledError("ctrl-c");
              }),
              130);
}

TEST(SimErrorHierarchy, JournalAndCancelledErrors)
{
    const JournalError corrupt(ErrorCode::JournalCorrupt, "bit rot");
    EXPECT_EQ(corrupt.code(), ErrorCode::JournalCorrupt);
    const JournalError mismatch(ErrorCode::ResumeMismatch, "inputs");
    EXPECT_EQ(mismatch.code(), ErrorCode::ResumeMismatch);

    const CancelledError cancelled("ctrl-c");
    EXPECT_EQ(cancelled.code(), ErrorCode::Cancelled);

    // Both remain catchable as SimError, like every recoverable error.
    try {
        throw JournalError(ErrorCode::JournalIo, "disk");
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::JournalIo);
    }
}

TEST(ConfigCheckKnown, FlagsMisspelledKeys)
{
    Config cfg;
    cfg.set("t_usefull", "6"); // the motivating typo
    cfg.set("bench", "164.gzip");
    const auto unknown = cfg.checkKnown({"t_useful", "bench"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "t_usefull");

    EXPECT_TRUE(cfg.checkKnown({"t_usefull", "bench"}).empty());
}

TEST(ConfigAccessors, MalformedValuesThrowConfigError)
{
    Config cfg;
    cfg.set("n", "twelve");
    cfg.set("x", "fast");
    cfg.set("b", "maybe");
    EXPECT_THROW((void)cfg.getInt("n", 0), ConfigError);
    EXPECT_THROW((void)cfg.getDouble("x", 0.0), ConfigError);
    EXPECT_THROW((void)cfg.getBool("b", false), ConfigError);
    EXPECT_EQ(cfg.getInt("absent", 9), 9);
}

TEST(ConfigAccessors, PositiveIntRejectsZeroAndNegative)
{
    {
        Config cfg;
        cfg.set("jobs", "4");
        EXPECT_EQ(cfg.getPositiveInt("jobs", 1), 4);
        EXPECT_EQ(cfg.getPositiveInt("absent", 1), 1);
    }
    for (const char *bad : {"0", "-3", "four"}) {
        Config cfg;
        cfg.set("jobs", bad);
        EXPECT_THROW((void)cfg.getPositiveInt("jobs", 1), ConfigError);
    }
}

TEST(ConfigDuplicates, SecondSetOfSameKeyThrows)
{
    Config cfg;
    cfg.set("jobs", "4");
    try {
        cfg.set("jobs", "8");
        FAIL() << "duplicate set() must throw";
    } catch (const ConfigError &e) {
        // The first value wins and is named in the message.
        EXPECT_NE(std::string(e.what()).find("duplicate config key "
                                             "'jobs'"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("'4'"), std::string::npos);
    }
    EXPECT_EQ(cfg.getInt("jobs", 0), 4);
}

TEST(ConfigDuplicates, FromArgsNamesBothSpellings)
{
    // The regression: `bench jobs=4 --jobs=8` used to keep whichever
    // token was parsed last; now it refuses, citing both spellings.
    const char *argv[] = {"bench", "jobs=4", "--jobs=8"};
    try {
        (void)Config::fromArgs(3, argv);
        FAIL() << "duplicate key across spellings must throw";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate config key 'jobs'"),
                  std::string::npos);
        EXPECT_NE(msg.find("'jobs=4'"), std::string::npos);
        EXPECT_NE(msg.find("'--jobs=8'"), std::string::npos);
    }

    // Bare-flag spelling collides with its explicit form too.
    const char *argv2[] = {"bench", "--verbose", "verbose=0"};
    EXPECT_THROW((void)Config::fromArgs(3, argv2), ConfigError);

    // Distinct keys and repeated positionals stay legal.
    const char *argv3[] = {"bench", "jobs=4", "trace=/tmp/t.json", "go",
                           "go"};
    const auto cfg = Config::fromArgs(5, argv3);
    EXPECT_EQ(cfg.getInt("jobs", 0), 4);
    EXPECT_EQ(cfg.positional().size(), 2u);
}

TEST(ConfigAccessors, JobsValidationCoversBothArgumentSpellings)
{
    // The bench harnesses accept `jobs=N` and `--jobs=N` as the same
    // key; the positive-int rule must hold for both.
    for (const char *spelling : {"jobs=0", "--jobs=0", "jobs=-2",
                                 "--jobs=-2"}) {
        const char *argv[] = {"bench", spelling};
        const auto cfg = Config::fromArgs(2, argv);
        EXPECT_THROW((void)cfg.getPositiveInt("jobs", 1), ConfigError)
            << spelling;
    }
    for (const char *spelling : {"jobs=3", "--jobs=3"}) {
        const char *argv[] = {"bench", spelling};
        EXPECT_EQ(Config::fromArgs(2, argv).getPositiveInt("jobs", 1), 3)
            << spelling;
    }
}

TEST(Validation, CoreParamsReportAllViolationsAtOnce)
{
    auto p = fo4::core::CoreParams::alpha21264();
    p.fetchWidth = 0;
    p.robSize = 2;
    p.issueLatency = 0;
    const auto st = p.validate();
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::InvalidConfig);
    EXPECT_NE(st.message().find("widths must be positive"),
              std::string::npos);
    EXPECT_NE(st.message().find("ROB"), std::string::npos);
    EXPECT_NE(st.message().find("issue latency"), std::string::npos);
    EXPECT_THROW(p.validateOrThrow(), ConfigError);
}

TEST(Validation, DefaultParamsAreValid)
{
    EXPECT_TRUE(fo4::core::CoreParams::alpha21264().validate().isOk());
}

TEST(Validation, CacheGeometry)
{
    fo4::mem::CacheParams c;
    c.capacityBytes = 64 * 1024;
    c.lineBytes = 64;
    c.associativity = 2;
    EXPECT_TRUE(c.validate().isOk());

    c.lineBytes = 48; // not a power of two
    EXPECT_FALSE(c.validate().isOk());
    c.lineBytes = 64;
    c.associativity = 0;
    EXPECT_FALSE(c.validate().isOk());
}

TEST(Validation, ClockModel)
{
    fo4::tech::ClockModel clock;
    clock.tUsefulFo4 = 6.0;
    EXPECT_TRUE(clock.validate().isOk());
    clock.tUsefulFo4 = -1.0;
    EXPECT_FALSE(clock.validate().isOk());
}

TEST(RunTopLevel, EveryHelpSpellingPrintsKeysWithoutRunningTheBody)
{
    const std::vector<KeyDoc> keys = {{"jobs", "worker threads"}};
    for (const char *help :
         {"help", "--help", "help=", "--help=", "help=1", "--help=1"}) {
        const char *argv[] = {"prog", "jobs=2", help};
        bool ran = false;
        EXPECT_EQ(runTopLevel(3, argv, keys,
                              [&ran] {
                                  ran = true;
                                  return 7;
                              }),
                  0)
            << help;
        EXPECT_FALSE(ran) << help;
    }
    const char *argv[] = {"prog", "jobs=2"};
    EXPECT_EQ(runTopLevel(2, argv, keys, [] { return 7; }), 7);
}
