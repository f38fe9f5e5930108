/**
 * @file
 * Integration tests for the out-of-order core using hand-built traces
 * with known timing behaviour, run on both engines: a wake-list or
 * select bug in the batched core fails here with a readable timing
 * message, not only as a differential hash mismatch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/core.hh"
#include "trace/generator.hh"
#include "trace/spec2000.hh"
#include "trace/trace.hh"

using namespace fo4::core;
using fo4::isa::MicroOp;
using fo4::isa::OpClass;
using fo4::trace::VectorTrace;

namespace
{

MicroOp
alu(std::int16_t dst, std::int16_t src1 = fo4::isa::noReg,
    std::int16_t src2 = fo4::isa::noReg)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    return op;
}

MicroOp
mult(std::int16_t dst, std::int16_t src1)
{
    MicroOp op;
    op.cls = OpClass::IntMult;
    op.dst = dst;
    op.src1 = src1;
    return op;
}

MicroOp
load(std::int16_t dst, std::uint64_t addr)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.dst = dst;
    op.src1 = 1;
    op.addr = addr;
    return op;
}

/** Independent ALU ops on distinct rotating registers. */
std::vector<MicroOp>
independentAlus(int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(alu(static_cast<std::int16_t>(i % 32)));
    return ops;
}

/** A serial chain: each op reads the previous op's destination. */
std::vector<MicroOp>
serialChain(int n, OpClass cls = OpClass::IntAlu)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i) {
        MicroOp op;
        op.cls = cls;
        op.dst = static_cast<std::int16_t>((i + 1) % 32);
        op.src1 = static_cast<std::int16_t>(i % 32);
        ops.push_back(op);
    }
    return ops;
}

/** Builds an out-of-order core: the reference or the batched engine. */
using CoreFactory = std::unique_ptr<Core> (*)(const CoreParams &,
                                              const std::string &);

double
ipcOf(CoreFactory make, const CoreParams &params, std::vector<MicroOp> ops,
      std::uint64_t n = 20000, const char *pred = "perfect")
{
    VectorTrace trace(std::move(ops));
    auto core = make(params, pred);
    return core->run(trace, n).ipc();
}

/** A core factory under the name the parameterized tests print. */
struct Engine
{
    const char *name;
    CoreFactory make;
};

void
PrintTo(const Engine &engine, std::ostream *os)
{
    *os << engine.name;
}

class OooEngine : public ::testing::TestWithParam<Engine>
{
};

} // namespace

/**
 * Defines a directed test once, as a function of the core factory
 * `make`, and runs it on both engines: the reference core as
 * OooCore.<Name> (the name predates the batched engine), the batched
 * core as Engines/OooEngine.<Name>/batched.
 */
#define OOO_DIRECTED_TEST(Name)                                       \
    static void Name##On(CoreFactory make);                           \
    TEST(OooCore, Name) { Name##On(makeOooCore); }                    \
    TEST_P(OooEngine, Name) { Name##On(GetParam().make); }            \
    static void Name##On(CoreFactory make)

INSTANTIATE_TEST_SUITE_P(Engines, OooEngine,
                         ::testing::Values(Engine{"batched",
                                                  &makeBatchedOooCore}));

OOO_DIRECTED_TEST(IndependentOpsReachFullWidth)
{
    const auto p = CoreParams::alpha21264();
    EXPECT_NEAR(ipcOf(make, p, independentAlus(64)), 4.0, 0.05);
}

OOO_DIRECTED_TEST(SerialAluChainIsBackToBack)
{
    // 1-cycle ALU with a 1-cycle wakeup loop: one op per cycle.
    const auto p = CoreParams::alpha21264();
    EXPECT_NEAR(ipcOf(make, p, serialChain(64)), 1.0, 0.02);
}

OOO_DIRECTED_TEST(SerialMultiplyChainPacedByLatency)
{
    // 7-cycle multiplies in a chain: one op per 7 cycles.
    const auto p = CoreParams::alpha21264();
    EXPECT_NEAR(ipcOf(make, p, serialChain(64, OpClass::IntMult), 5000),
                1.0 / 7.0, 0.005);
}

OOO_DIRECTED_TEST(WakeupLoopBreaksBackToBack)
{
    // A 2-cycle issue window spaces dependent 1-cycle ops 2 cycles apart
    // (paper Section 4.6: the issue-wakeup critical loop).
    auto p = CoreParams::alpha21264();
    p.issueLatency = 2;
    EXPECT_NEAR(ipcOf(make, p, serialChain(64)), 0.5, 0.01);
}

OOO_DIRECTED_TEST(WakeupLoopHidesUnderLongLatency)
{
    // The same 2-cycle loop is invisible under 7-cycle multiplies: tags
    // ripple while the producer executes.
    auto p = CoreParams::alpha21264();
    p.issueLatency = 2;
    EXPECT_NEAR(ipcOf(make, p, serialChain(64, OpClass::IntMult), 5000),
                1.0 / 7.0, 0.005);
}

OOO_DIRECTED_TEST(ExtraWakeupExtension)
{
    // Figure 8's loop extension: +3 cycles on the wakeup loop paces a
    // 1-cycle chain at one op per 4 cycles.
    auto p = CoreParams::alpha21264();
    p.extraWakeup = 3;
    EXPECT_NEAR(ipcOf(make, p, serialChain(64), 5000), 0.25, 0.01);
}

namespace
{

/** A true load-use chain: each load's address comes from the previous
 *  ALU result, and each ALU consumes the preceding load.  The register
 *  rotation closes the chain across the trace's wrap-around, so the
 *  dependence ring never breaks. */
std::vector<MicroOp>
loadUseChain(int pairs)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < pairs; ++i) {
        const auto lreg = static_cast<std::int16_t>(2 + (2 * i) % 30);
        const auto areg = static_cast<std::int16_t>(2 + (2 * i + 1) % 30);
        MicroOp ld = load(lreg, 0x100);
        ld.src1 = static_cast<std::int16_t>(2 + (2 * i - 1 + 30) % 30);
        ops.push_back(ld);
        ops.push_back(alu(areg, lreg));
    }
    return ops;
}

} // namespace

OOO_DIRECTED_TEST(LoadUseChainPacedByCacheLatency)
{
    // load -> alu -> load -> alu ... with 3-cycle DL1 hits: each pair
    // takes 3 + 1 cycles.
    const auto p = CoreParams::alpha21264();
    EXPECT_NEAR(ipcOf(make, p, loadUseChain(30), 10000), 2.0 / 4.0, 0.02);
}

OOO_DIRECTED_TEST(ExtraLoadUseExtension)
{
    auto p = CoreParams::alpha21264();
    p.extraLoadUse = 2;
    EXPECT_NEAR(ipcOf(make, p, loadUseChain(30), 10000), 2.0 / 6.0, 0.02);
}

OOO_DIRECTED_TEST(MemIssueWidthCapsLoads)
{
    // Independent loads (no address register, distinct destination
    // registers): limited to memIssueWidth per cycle.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        MicroOp ld = load(static_cast<std::int16_t>(i % 32),
                          0x100 + 64 * (i % 4));
        ld.src1 = fo4::isa::noReg;
        ops.push_back(ld);
    }
    auto p = CoreParams::alpha21264();
    p.memIssueWidth = 2;
    EXPECT_NEAR(ipcOf(make, p, ops, 20000), 2.0, 0.05);
}

OOO_DIRECTED_TEST(OutOfOrderPassesStalledHead)
{
    // A multiply chain plus independent ALUs: the OoO core sustains the
    // ALU stream while multiplies crawl.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 16; ++i) {
        ops.push_back(mult(0, 0));
        ops.push_back(alu(static_cast<std::int16_t>(1 + i % 16)));
        ops.push_back(alu(static_cast<std::int16_t>(17 + i % 15)));
    }
    const auto p = CoreParams::alpha21264();
    // Chain alone would give 1/7; with two independent ops per multiply
    // the core approaches 3 ops per 7 cycles.
    EXPECT_GT(ipcOf(make, p, ops, 10000), 0.40);
}

OOO_DIRECTED_TEST(MispredictsCostCycles)
{
    // All branches taken, "taken" predictor correct vs a never-taken
    // stream mispredicted by it: the latter must be much slower.
    auto mkops = [](bool taken) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 16; ++i) {
            ops.push_back(alu(static_cast<std::int16_t>(i % 32)));
            MicroOp br;
            br.cls = OpClass::Branch;
            br.pc = 0x1000 + i * 8;
            br.src1 = static_cast<std::int16_t>(i % 32);
            br.taken = taken;
            br.addr = 0x2000;
            ops.push_back(br);
        }
        return ops;
    };
    const auto p = CoreParams::alpha21264();
    const double good = ipcOf(make, p, mkops(true), 10000, "taken");
    const double bad = ipcOf(make, p, mkops(false), 10000, "taken");
    EXPECT_GT(good, 2.0 * bad);
}

OOO_DIRECTED_TEST(ExtraMispredictPenaltySlowsMispredictedStream)
{
    auto mkops = [] {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 16; ++i) {
            ops.push_back(alu(static_cast<std::int16_t>(i % 32)));
            MicroOp br;
            br.cls = OpClass::Branch;
            br.pc = 0x1000 + i * 8;
            br.taken = false;
            ops.push_back(br);
        }
        return ops;
    };
    auto p = CoreParams::alpha21264();
    const double base = ipcOf(make, p, mkops(), 10000, "taken");
    p.extraMispredictPenalty = 10;
    const double extended = ipcOf(make, p, mkops(), 10000, "taken");
    EXPECT_LT(extended, base);
}

OOO_DIRECTED_TEST(DeterministicAcrossRuns)
{
    const auto prof = fo4::trace::spec2000Profile("164.gzip");
    const auto p = CoreParams::alpha21264();
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto core = make(p, "tournament");
    const auto r1 = core->run(gen, 20000, 2000, 50000);
    const auto r2 = core->run(gen, 20000, 2000, 50000);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.mispredicts, r2.mispredicts);
    EXPECT_EQ(r1.dl1Misses, r2.dl1Misses);
}

OOO_DIRECTED_TEST(PrewarmReducesColdMisses)
{
    const auto prof = fo4::trace::spec2000Profile("164.gzip");
    const auto p = CoreParams::alpha21264();
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto core = make(p, "tournament");
    const auto cold = core->run(gen, 20000, 0, 0);
    const auto warm = core->run(gen, 20000, 0, 300000);
    EXPECT_LT(warm.dl1Misses, cold.dl1Misses);
    EXPECT_GE(warm.ipc(), cold.ipc());
}

OOO_DIRECTED_TEST(SegmentedWindowNeverFasterThanMonolithic)
{
    const auto prof = fo4::trace::spec2000Profile("176.gcc");
    auto p = CoreParams::alpha21264();
    double prev = 1e9;
    for (int stages : {1, 4, 10}) {
        p.window.wakeupStages = stages;
        fo4::trace::SyntheticTraceGenerator gen(prof);
        auto core = make(p, "tournament");
        const double ipc = core->run(gen, 30000, 3000, 200000).ipc();
        EXPECT_LE(ipc, prev + 1e-9) << stages << " stages";
        prev = ipc;
    }
}

OOO_DIRECTED_TEST(PartitionedSelectCostsLittle)
{
    const auto prof = fo4::trace::spec2000Profile("176.gcc");
    auto p = CoreParams::alpha21264();
    p.window.wakeupStages = 4;
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto full = make(p, "tournament");
    const double fullIpc = full->run(gen, 30000, 3000, 200000).ipc();

    p.window.select = SelectModel::Partitioned;
    auto part = make(p, "tournament");
    const double partIpc = part->run(gen, 30000, 3000, 200000).ipc();

    EXPECT_LE(partIpc, fullIpc + 1e-9);
    EXPECT_GT(partIpc, 0.85 * fullIpc); // paper: about 4% loss
}

OOO_DIRECTED_TEST(CountsEventClasses)
{
    const auto prof = fo4::trace::spec2000Profile("164.gzip");
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto core = make(CoreParams::alpha21264(), "tournament");
    const auto r = core->run(gen, 20000);
    EXPECT_GT(r.branches, 1000u);
    EXPECT_GT(r.loads, 2000u);
    EXPECT_GT(r.stores, 1000u);
    EXPECT_GT(r.mispredicts, 0u);
    EXPECT_LT(r.mispredictRate(), 0.5);
}

OOO_DIRECTED_TEST(WarmupSubtractionKeepsRates)
{
    const auto prof = fo4::trace::spec2000Profile("164.gzip");
    fo4::trace::SyntheticTraceGenerator gen(prof);
    auto core = make(CoreParams::alpha21264(), "tournament");
    const auto r = core->run(gen, 20000, 5000, 100000);
    EXPECT_EQ(r.instructions, 20000u);
    EXPECT_GT(r.cycles, 0u);
    // Rates must be sane after subtraction.
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LT(r.mispredictRate(), 0.5);
}
