/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * benchmark profile and across the whole scaled configuration space,
 * exercised with parameterized sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/core.hh"
#include "study/goldengen.hh"
#include "study/runner.hh"
#include "study/scaling.hh"
#include "trace/capture.hh"
#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "trace/spec2000.hh"
#include "trace/trace_codec.hh"
#include "util/random.hh"

#include "isa/latencies.hh"

using namespace fo4;
using fo4::util::Rng;

// ---------------------------------------------------------------------
// Per-benchmark invariants.
// ---------------------------------------------------------------------

class EveryBenchmark : public ::testing::TestWithParam<std::string>
{
  protected:
    trace::BenchmarkProfile
    profile() const
    {
        return trace::spec2000Profile(GetParam());
    }
};

TEST_P(EveryBenchmark, StreamIsWellFormed)
{
    trace::SyntheticTraceGenerator gen(profile());
    for (int i = 0; i < 20000; ++i) {
        const auto op = gen.next();
        EXPECT_EQ(op.seq, static_cast<std::uint64_t>(i));
        if (op.dst != isa::noReg) {
            EXPECT_GE(op.dst, 0);
            EXPECT_LT(op.dst, isa::numArchRegs);
        }
        if (op.src1 != isa::noReg) {
            EXPECT_LT(op.src1, isa::numArchRegs);
        }
        if (op.src2 != isa::noReg) {
            EXPECT_LT(op.src2, isa::numArchRegs);
        }
        if (isa::isMemory(op.cls)) {
            EXPECT_NE(op.addr, 0u);
        }
        if (op.isBranch()) {
            EXPECT_EQ(op.dst, isa::noReg);
        }
        if (op.isStore()) {
            EXPECT_EQ(op.dst, isa::noReg);
        }
        if (op.isLoad()) {
            EXPECT_NE(op.dst, isa::noReg);
        }
    }
}

TEST_P(EveryBenchmark, FpOpsWriteFpRegisters)
{
    trace::SyntheticTraceGenerator gen(profile());
    for (int i = 0; i < 20000; ++i) {
        const auto op = gen.next();
        if (isa::isFloat(op.cls)) {
            EXPECT_GE(op.dst, 64) << op.toString();
        }

        if (op.cls == isa::OpClass::IntAlu ||
            op.cls == isa::OpClass::IntMult) {
            EXPECT_LT(op.dst, 64) << op.toString();
        }
    }
}

TEST_P(EveryBenchmark, SimulationInvariantsHold)
{
    trace::SyntheticTraceGenerator gen(profile());
    auto core = core::makeOooCore(core::CoreParams::alpha21264(),
                                  "tournament");
    const auto r = core->run(gen, 20000, 2000, 100000);
    // Commit-width granularity: the warm-up snapshot and the stopping
    // point can each overshoot by up to commitWidth-1 instructions.
    EXPECT_NEAR(double(r.instructions), 20000.0, 8.0);
    EXPECT_GT(r.cycles, 0u);
    // IPC cannot exceed the machine width.
    EXPECT_LE(r.ipc(), 4.0 + 1e-9);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.mispredicts, r.branches);
    EXPECT_LE(r.mispredictRate(), 1.0);
    // Every benchmark touches memory and branches.
    EXPECT_GT(r.branches, 0u);
    EXPECT_GT(r.loads, 0u);
}

TEST_P(EveryBenchmark, DeterministicAcrossCoreInstances)
{
    const auto prof = profile();
    trace::SyntheticTraceGenerator g1(prof), g2(prof);
    auto c1 = core::makeOooCore(core::CoreParams::alpha21264(),
                                "tournament");
    auto c2 = core::makeOooCore(core::CoreParams::alpha21264(),
                                "tournament");
    const auto r1 = c1->run(g1, 10000, 1000, 50000);
    const auto r2 = c2->run(g2, 10000, 1000, 50000);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.mispredicts, r2.mispredicts);
    EXPECT_EQ(r1.dl1Misses, r2.dl1Misses);
    EXPECT_EQ(r1.l2Misses, r2.l2Misses);
}

INSTANTIATE_TEST_SUITE_P(
    Spec2000, EveryBenchmark,
    ::testing::Values("164.gzip", "175.vpr", "176.gcc", "181.mcf",
                      "197.parser", "252.eon", "253.perlbmk", "256.bzip2",
                      "300.twolf", "171.swim", "172.mgrid", "173.applu",
                      "183.equake", "177.mesa", "178.galgel", "179.art",
                      "188.ammp", "189.lucas"));

// ---------------------------------------------------------------------
// Scaled-configuration invariants across the whole sweep.
// ---------------------------------------------------------------------

class EveryClock : public ::testing::TestWithParam<int>
{
};

TEST_P(EveryClock, ConfigurationIsInternallyConsistent)
{
    const double t = GetParam();
    const auto p = study::scaledCoreParams(t, {});
    // Quantization: every latency is ceil(fo4 / t) of some positive
    // budget, so scaling t by 2 at most halves (+1) each latency.
    const auto p2 = study::scaledCoreParams(t * 2 <= 16 ? t * 2 : 16, {});
    EXPECT_GE(p.memLatencies.dl1, p2.memLatencies.dl1);
    EXPECT_GE(p.fetchStages, p2.fetchStages);
    EXPECT_GE(p.issueLatency, p2.issueLatency);
    for (int c = 0; c < isa::numOpClasses; ++c) {
        EXPECT_GE(p.execCycles[c], p2.execCycles[c]);
        EXPECT_GE(p.execCycles[c], 1);
    }
    // FO4 budgets reconstruct within quantization error.
    EXPECT_LE(std::abs(p.memLatencies.dl1 * t - 32.0), t + 1e-9);
}

TEST_P(EveryClock, GzipRunsAndObeysWidth)
{
    const double t = GetParam();
    trace::SyntheticTraceGenerator gen(trace::spec2000Profile("164.gzip"));
    auto core = core::makeOooCore(study::scaledCoreParams(t, {}),
                                  "tournament");
    const auto r = core->run(gen, 10000, 1000, 100000);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_LE(r.ipc(), 4.0 + 1e-9);
}

TEST_P(EveryClock, InorderNeverBeatsOoo)
{
    const double t = GetParam();
    const auto params = study::scaledCoreParams(t, {});
    trace::SyntheticTraceGenerator g1(trace::spec2000Profile("176.gcc"));
    trace::SyntheticTraceGenerator g2(trace::spec2000Profile("176.gcc"));
    auto in = core::makeInorderCore(params, "tournament");
    auto ooo = core::makeOooCore(params, "tournament");
    const double inIpc = in->run(g1, 10000, 1000, 100000).ipc();
    const double oooIpc = ooo->run(g2, 10000, 1000, 100000).ipc();
    EXPECT_LE(inIpc, oooIpc * 1.05) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EveryClock,
                         ::testing::Values(2, 3, 4, 6, 8, 11, 16));

// ---------------------------------------------------------------------
// Monotonicity properties of the machinery.
// ---------------------------------------------------------------------

TEST(Properties, BipsIsConsistentWithIpcAcrossOverheads)
{
    // For a fixed t_useful, BIPS scales exactly with 1/(t + overhead).
    const double ipc = 0.5;
    const auto c1 = study::scaledClock(6.0,
                                       tech::OverheadModel::uniform(1.0));
    const auto c2 = study::scaledClock(6.0,
                                       tech::OverheadModel::uniform(3.0));
    EXPECT_NEAR(c1.bips(ipc) / c2.bips(ipc), (6.0 + 3.0) / (6.0 + 1.0),
                1e-12);
}

TEST(Properties, ExtendingAnyLoopNeverHelps)
{
    const auto prof = trace::spec2000Profile("176.gcc");
    auto run = [&](int wake, int load, int mis) {
        auto p = core::CoreParams::alpha21264();
        p.extraWakeup = wake;
        p.extraLoadUse = load;
        p.extraMispredictPenalty = mis;
        trace::SyntheticTraceGenerator gen(prof);
        auto c = core::makeOooCore(p, "tournament");
        return c->run(gen, 15000, 2000, 100000).ipc();
    };
    const double base = run(0, 0, 0);
    EXPECT_LE(run(4, 0, 0), base + 1e-9);
    EXPECT_LE(run(0, 4, 0), base + 1e-9);
    EXPECT_LE(run(0, 0, 4), base + 1e-9);
}

TEST(Properties, BiggerWindowNeverHurts)
{
    const auto prof = trace::spec2000Profile("171.swim");
    auto run = [&](int cap) {
        auto p = core::CoreParams::alpha21264();
        p.window.capacity = cap;
        trace::SyntheticTraceGenerator gen(prof);
        auto c = core::makeOooCore(p, "tournament");
        return c->run(gen, 15000, 2000, 100000).ipc();
    };
    const double w16 = run(16);
    const double w32 = run(32);
    const double w64 = run(64);
    // Allow a sliver of slack: a larger window shifts when loads reach
    // the fill bus, which can reorder queueing by a fraction of a
    // percent.
    EXPECT_LE(w16, w32 * 1.01);
    EXPECT_LE(w32, w64 * 1.01);
    EXPECT_LT(w16, w64); // strictly better end to end
}

TEST(Properties, MoreWakeupStagesNeverHelp)
{
    const auto prof = trace::spec2000Profile("176.gcc");
    double prev = 1e9;
    for (int stages : {1, 2, 4, 8, 10}) {
        auto p = core::CoreParams::alpha21264();
        p.window.wakeupStages = stages;
        trace::SyntheticTraceGenerator gen(prof);
        auto c = core::makeOooCore(p, "tournament");
        const double ipc = c->run(gen, 15000, 2000, 100000).ipc();
        EXPECT_LE(ipc, prev + 1e-9) << stages;
        prev = ipc;
    }
}

TEST(Properties, FrequencyTimesPeriodIsUnity)
{
    for (double t = 2; t <= 16; t += 0.5) {
        const auto clock = study::scaledClock(t);
        EXPECT_NEAR(clock.frequencyGhz() * clock.periodPs() / 1000.0, 1.0,
                    1e-9);
    }
}

// ---------------------------------------------------------------------
// Randomized property suite.
//
// Each invariant below runs kPropertyCases randomized trials from a
// fixed, reseedable RNG: the default seed keeps CI deterministic, and
// FO4_PROPERTY_SEED=<n> in the environment replays (or explores) a
// different universe.  Every trial failure message carries the case
// index, so seed + index reproduces a single counterexample.
// ---------------------------------------------------------------------

namespace
{

constexpr int kPropertyCases = 256;

/** Per-invariant RNG: base seed from FO4_PROPERTY_SEED (default fixed),
 *  folded with the invariant name so the streams are independent. */
Rng
propertyRng(const char *invariant)
{
    std::uint64_t seed = 20260809;
    if (const char *env = std::getenv("FO4_PROPERTY_SEED"))
        seed = std::strtoull(env, nullptr, 0);
    std::cout << "[ property ] " << invariant << ": base seed " << seed
              << " (override with FO4_PROPERTY_SEED)\n";
    std::uint64_t folded = seed;
    for (const char *c = invariant; *c != '\0'; ++c)
        folded = folded * 1099511628211ULL +
                 static_cast<unsigned char>(*c);
    return Rng(folded);
}

/** A random record-layer op: any value the codec's range checks admit
 *  (class in range, registers in [-1, numArchRegs)). */
isa::MicroOp
randomRecordOp(Rng &rng, std::uint64_t seq)
{
    isa::MicroOp op;
    op.seq = seq;
    op.pc = rng.below(1ULL << 40);
    op.cls = static_cast<isa::OpClass>(rng.below(isa::numOpClasses));
    op.src1 = static_cast<std::int16_t>(
        static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
    op.src2 = static_cast<std::int16_t>(
        static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
    op.dst = static_cast<std::int16_t>(
        static_cast<int>(rng.below(isa::numArchRegs + 1)) - 1);
    op.addr = rng.below(1ULL << 30);
    op.taken = rng.chance(0.5);
    return op;
}

bool
sameRecordOp(const isa::MicroOp &a, const isa::MicroOp &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.cls == b.cls &&
           a.src1 == b.src1 && a.src2 == b.src2 && a.dst == b.dst &&
           a.addr == b.addr && a.taken == b.taken;
}

/** Small random core geometry — cheap to simulate, still stall-rich. */
core::CoreParams
randomTinyParams(Rng &rng)
{
    core::CoreParams p = core::CoreParams::alpha21264();
    p.fetchWidth = 1 + static_cast<int>(rng.below(4));
    p.commitWidth = 1 + static_cast<int>(rng.below(6));
    p.intIssueWidth = 1 + static_cast<int>(rng.below(3));
    p.robSize = 8 + static_cast<int>(rng.below(56));
    p.lsqSize = 2 + static_cast<int>(rng.below(30));
    p.window.capacity = 2 + static_cast<int>(rng.below(30));
    p.extraLoadUse = static_cast<int>(rng.below(3));
    p.extraMispredictPenalty = static_cast<int>(rng.below(4));
    if (rng.chance(0.5)) {
        p.dl1 = mem::CacheParams{8 * 1024, 32, 2};
        p.l2 = mem::CacheParams{128 * 1024, 64, 4};
    }
    return p;
}

std::unique_ptr<core::Core>
randomCore(Rng &rng, const core::CoreParams &params, bool &oooOut)
{
    const bool batched = rng.chance(0.5);
    oooOut = rng.chance(0.5);
    if (oooOut)
        return batched ? core::makeBatchedOooCore(params, "tournament")
                       : core::makeOooCore(params, "tournament");
    return batched ? core::makeBatchedInorderCore(params, "tournament")
                   : core::makeInorderCore(params, "tournament");
}

trace::BenchmarkProfile
randomProfile(Rng &rng)
{
    static const std::vector<trace::BenchmarkProfile> profiles =
        trace::spec2000Profiles();
    return profiles[rng.below(profiles.size())];
}

} // namespace

TEST(RandomizedProperties, RecordCodecRoundTripsEveryOp)
{
    // pack -> encode -> decode -> unpack is the identity on every op
    // the range checks admit — the bedrock under both disk formats.
    Rng rng = propertyRng("record-codec-round-trip");
    for (int i = 0; i < kPropertyCases; ++i) {
        const auto op = randomRecordOp(rng, rng.below(1ULL << 32));
        unsigned char bytes[sizeof(trace::TraceRecord)];
        trace::encodeTraceRecord(trace::packTraceRecord(op), bytes);
        const auto back =
            trace::unpackTraceRecord(trace::decodeTraceRecord(bytes));
        ASSERT_TRUE(sameRecordOp(op, back))
            << "case " << i << ": " << op.toString() << " != "
            << back.toString();
    }
}

TEST(RandomizedProperties, CaptureFilesRoundTripEveryStream)
{
    // Random streams, random frame sizes, random metadata: whatever
    // the writer publishes, the reader recovers exactly, finalized.
    Rng rng = propertyRng("capture-file-round-trip");
    const std::string path =
        std::string(::testing::TempDir()) + "/property_roundtrip.fo4cap";
    for (int i = 0; i < kPropertyCases; ++i) {
        const std::size_t n = 1 + rng.below(60);
        std::vector<isa::MicroOp> ops;
        for (std::size_t k = 0; k < n; ++k)
            ops.push_back(randomRecordOp(rng, k));
        trace::CaptureMeta meta;
        const std::size_t pairs = rng.below(4);
        for (std::size_t k = 0; k < pairs; ++k)
            meta.emplace_back("key" + std::to_string(k),
                              std::to_string(rng.below(1u << 30)));

        auto writer = trace::CaptureWriter::create(
            path, meta, 1 + rng.below(24));
        for (const auto &op : ops)
            writer.append(op);
        writer.close();

        const auto contents = trace::readCapture(path);
        ASSERT_TRUE(contents.finalized) << "case " << i;
        ASSERT_FALSE(contents.tornTail) << "case " << i;
        ASSERT_EQ(contents.meta, meta) << "case " << i;
        ASSERT_EQ(contents.ops.size(), ops.size()) << "case " << i;
        for (std::size_t k = 0; k < ops.size(); ++k)
            ASSERT_TRUE(sameRecordOp(contents.ops[k], ops[k]))
                << "case " << i << " op " << k;
    }
    std::remove(path.c_str());
}

TEST(RandomizedProperties, StallCausesPartitionStallCycles)
{
    // On every configuration, model and implementation: the per-cause
    // stall counters sum exactly to stallCycles — no cycle is counted
    // twice and none goes missing.
    Rng rng = propertyRng("stall-partition");
    for (int i = 0; i < kPropertyCases; ++i) {
        const auto params = randomTinyParams(rng);
        bool ooo = false;
        auto core = randomCore(rng, params, ooo);
        trace::SyntheticTraceGenerator gen(randomProfile(rng));
        const auto r = core->run(gen, 200, 20, 500, 500000);
        ASSERT_EQ(r.stalls.total(), r.stallCycles)
            << "case " << i << " ooo=" << ooo;
        ASSERT_LE(r.stallCycles, r.cycles) << "case " << i;
    }
}

TEST(RandomizedProperties, BipsIsExactlyInverseInOverhead)
{
    // Pure clock math: for fixed t_useful and IPC, BIPS follows
    // 1/(t_useful + t_overhead) exactly — more per-stage overhead can
    // only slow the machine, by exactly the predicted ratio.
    Rng rng = propertyRng("bips-overhead-monotonicity");
    for (int i = 0; i < kPropertyCases; ++i) {
        const double t = 2.0 + 14.0 * rng.below(1u << 20) / (1u << 20);
        const double o1 = 5.0 * rng.below(1u << 20) / (1u << 20);
        const double o2 = o1 + 0.01 +
                          5.0 * rng.below(1u << 20) / (1u << 20);
        const double ipc = 0.05 + 4.0 * rng.below(1u << 20) / (1u << 20);
        const auto c1 =
            study::scaledClock(t, tech::OverheadModel::uniform(o1));
        const auto c2 =
            study::scaledClock(t, tech::OverheadModel::uniform(o2));
        ASSERT_GT(c1.bips(ipc), c2.bips(ipc))
            << "case " << i << " t=" << t << " o1=" << o1 << " o2=" << o2;
        ASSERT_NEAR(c1.bips(ipc) / c2.bips(ipc), (t + o2) / (t + o1),
                    1e-9)
            << "case " << i;
    }
}

TEST(RandomizedProperties, WarmupOnlyExcludesTheWarmupPrefix)
{
    // Simulating n instructions after a w-instruction warmup is the
    // same simulation as n+w instructions with no warmup — warmup only
    // moves the measurement window, never the machine's behavior.  Both
    // boundaries land on commit-width granularity, hence the slack.
    Rng rng = propertyRng("warmup-subtraction");
    for (int i = 0; i < kPropertyCases; ++i) {
        const auto params = randomTinyParams(rng);
        const auto prof = randomProfile(rng);
        const std::uint64_t n = 100 + rng.below(300);
        const std::uint64_t w = 100 + rng.below(200);
        bool ooo = false;

        Rng fork = rng; // same core/model choice for both runs
        auto warmed = randomCore(fork, params, ooo);
        auto cold = randomCore(rng, params, ooo);
        trace::SyntheticTraceGenerator g1(prof), g2(prof);
        const auto rw = warmed->run(g1, n, w, 0, 500000);
        const auto rc = cold->run(g2, n + w, 0, 0, 500000);

        // Boundary granularity: the out-of-order core retires up to
        // commitWidth per cycle, the in-order core up to its total
        // issue width — both the warmup snapshot and the stopping
        // point can overshoot by one cycle's worth of retirement.
        const int retirePerCycle =
            std::max(params.commitWidth, params.intIssueWidth +
                                             params.fpIssueWidth +
                                             params.memIssueWidth);
        const auto slack = static_cast<double>(2 * retirePerCycle);
        ASSERT_NEAR(static_cast<double>(rw.instructions),
                    static_cast<double>(n), slack)
            << "case " << i;
        ASSERT_NEAR(static_cast<double>(rc.instructions),
                    static_cast<double>(n + w), slack)
            << "case " << i;
        // The timed region of the warmed run is a strict suffix of the
        // cold run's; excluding a >= 100-instruction prefix must
        // shorten the measured cycles.
        ASSERT_LT(rw.cycles, rc.cycles) << "case " << i << " ooo=" << ooo;
    }
}

TEST(RandomizedProperties, RecordThenReplayIsTheIdentity)
{
    // The tentpole contract at property scale: record any run, replay
    // the capture under the same spec, and every statistic of the
    // replayed SimResult equals the live run's.
    Rng rng = propertyRng("record-replay-idempotence");
    const std::string path =
        std::string(::testing::TempDir()) + "/property_replay.fo4cap";
    for (int i = 0; i < kPropertyCases; ++i) {
        study::CaptureRequest request;
        request.profile = randomProfile(rng);
        request.params = randomTinyParams(rng);
        request.spec.model = rng.chance(0.5)
                                 ? study::CoreModel::OutOfOrder
                                 : study::CoreModel::InOrder;
        request.spec.impl = rng.chance(0.5) ? study::SimImpl::Batched
                                            : study::SimImpl::Reference;
        request.spec.instructions = 150 + rng.below(200);
        request.spec.warmup = rng.below(80);
        request.spec.prewarm = 200 + rng.below(300);
        request.spec.cycleLimit = 1000000;
        request.margin = 64;
        const auto info = study::recordCapture(path, request);

        trace::RecordedTrace replaySource(path);
        const bool replayBatched = rng.chance(0.5);
        auto core =
            request.spec.model == study::CoreModel::OutOfOrder
                ? (replayBatched
                       ? core::makeBatchedOooCore(request.params,
                                                  request.spec.predictor)
                       : core::makeOooCore(request.params,
                                           request.spec.predictor))
                : (replayBatched
                       ? core::makeBatchedInorderCore(
                             request.params, request.spec.predictor)
                       : core::makeInorderCore(request.params,
                                               request.spec.predictor));
        const auto r =
            core->run(replaySource, request.spec.instructions,
                      request.spec.warmup, request.spec.prewarm,
                      request.spec.cycleLimit);

        const auto &live = info.sim;
        ASSERT_EQ(r.instructions, live.instructions) << "case " << i;
        ASSERT_EQ(r.cycles, live.cycles) << "case " << i;
        ASSERT_EQ(r.branches, live.branches) << "case " << i;
        ASSERT_EQ(r.mispredicts, live.mispredicts) << "case " << i;
        ASSERT_EQ(r.dl1Misses, live.dl1Misses) << "case " << i;
        ASSERT_EQ(r.l2Misses, live.l2Misses) << "case " << i;
        ASSERT_EQ(r.stallCycles, live.stallCycles) << "case " << i;
        for (int c = 0; c < core::numStallCauses; ++c)
            ASSERT_EQ(r.stalls.byCause[c], live.stalls.byCause[c])
                << "case " << i << " cause " << c;
    }
    std::remove(path.c_str());
}

TEST(Properties, Table3QuantizationIsExactlyCeiling)
{
    // cycles * t >= fo4 > (cycles - 1) * t for every structure and t.
    const cacti::StructureModel model;
    using SK = cacti::StructureKind;
    for (const auto kind :
         {SK::DL1, SK::L2, SK::BranchPredictor, SK::RenameTable,
          SK::IssueWindow, SK::RegisterFile}) {
        const double fo4 = model.latencyFo4(
            kind, cacti::StructureModel::alphaCapacity(kind));
        for (int t = 2; t <= 16; ++t) {
            tech::ClockModel clock;
            clock.tUsefulFo4 = t;
            const int cycles = clock.latencyCycles(fo4);
            EXPECT_GE(cycles * t + 1e-9, fo4);
            if (cycles > 1) {
                EXPECT_LT((cycles - 1) * t, fo4 + 1e-9);
            }
        }
    }
}
