/**
 * @file
 * Throughput-optimized out-of-order core (`sim_impl=batched`): the same
 * cycle-level model as OooCore — byte-identical results, pinned by
 * tests/test_core_differential.cc — restructured for raw speed:
 *
 *  - struct-of-arrays in-flight arena (the per-cycle hot scalars live in
 *    dense typed arrays indexed by sequence slot, not an array of
 *    DynInst structs);
 *  - an event-driven issue window in place of per-cycle scans: dispatch
 *    puts each entry on its unissued producers' wake lists; issue walks
 *    the issued producer's list and freezes each consumer's wakeup
 *    cycle at its post-compaction stage; an entry whose last source
 *    freezes waits in a wake calendar (a timing wheel of per-cycle
 *    buckets) and then joins an age-ordered ready mask (one per
 *    int/mem/fp class, one bit per sequence slot, so window position
 *    is a popcount of the in-window mask);
 *  - select takes the oldest ready entries with count-trailing-zeros
 *    over those masks, under the same width and preselect rules;
 *  - devirtualized trace reads when fed a trace::DecodedTraceView;
 *  - shared prewarm state via core::WarmStartCache;
 *  - idle spans where commit, issue, dispatch and fetch are all provably
 *    inert are charged in bulk; "nothing ready" and "next wake event"
 *    are the ready count and the first busy calendar bucket, with no
 *    window scan.
 *
 * DESIGN.md §14 is the contract: none of these may change bytes.
 */

#ifndef FO4_CORE_BATCHED_OOO_CORE_HH
#define FO4_CORE_BATCHED_OOO_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "bp/predictor.hh"
#include "core/core.hh"
#include "core/window.hh"
#include "isa/microop.hh"
#include "mem/hierarchy.hh"
#include "trace/decoded_trace.hh"
#include "util/status.hh"

namespace fo4::core
{

/** The batched out-of-order pipeline model. */
class BatchedOooCore : public Core
{
  public:
    /**
     * `predictorKey` names the predictor's factory configuration and
     * enables the shared warm-state cache; empty disables sharing (the
     * core then prewarms per run, still byte-identically).
     */
    BatchedOooCore(const CoreParams &params,
                   std::unique_ptr<bp::BranchPredictor> predictor,
                   std::string predictorKey = "");

    SimResult run(trace::TraceSource &trace, std::uint64_t instructions,
                  std::uint64_t warmup = 0, std::uint64_t prewarm = 0,
                  std::uint64_t cycleLimit = 0,
                  const util::CancelToken *cancel = nullptr) override;

    const CoreParams &params() const override { return prm; }

    void setTracer(util::TraceEventRing *ring) override { tracer = ring; }

    void setRetireSink(trace::RetireSink *sink) override
    {
        retireSink = sink;
        // The side array of full ops exists only while observed, so the
        // no-sink hot path stays untouched (DESIGN.md §14).
        if (sink != nullptr && aOp.size() != aCls.size())
            aOp.resize(aCls.size());
    }

  private:
    void resetState();
    util::DeadlockDump watchdogDump(const SimResult &result,
                                    std::uint64_t total,
                                    std::uint64_t limit) const;
    void doCommit(SimResult &result);
    void doIssue();
    void doDispatch(SimResult &result);
    void doFetch(SimResult &result);
    StallCause classifyStall() const;
    isa::MicroOp nextOp();

    // Event-driven issue window (window.cc semantics, devirtualized
    // wakeup, stats omitted — they are not part of SimResult).
    std::int64_t depReady(InflightRef producer, int stage) const;
    std::size_t positionOf(std::size_t slot) const;
    void schedule(std::size_t slot);
    void wakeDue();
    std::int64_t nextWake() const;
    void selectAndRemove();
    void preselect();

    /** Bulk-account a provably-idle span; returns cycles skipped. */
    std::int64_t skipIdleSpan(SimResult &result, OccupancySample &occ,
                              std::uint64_t limit);

    std::size_t slotIx(std::uint64_t seq) const { return seq & slotMask; }

    CoreParams prm;
    std::unique_ptr<bp::BranchPredictor> bpred;
    std::string bpredKey;
    mem::MemoryHierarchy memory;

    // In-flight arena, struct-of-arrays over sequence slots.
    std::vector<std::int64_t> aDispatchReady;
    std::vector<std::int64_t> aIssueCycle;
    std::vector<std::int64_t> aDoneCycle;
    std::vector<int> aExecLat;
    std::vector<int> aDepLat;
    std::vector<std::uint64_t> aAddr;
    std::vector<isa::OpClass> aCls;
    std::vector<std::int16_t> aSrc1;
    std::vector<std::int16_t> aSrc2;
    std::vector<std::int16_t> aDst;
    std::vector<std::uint8_t> aMispredicted;
    std::vector<std::uint8_t> aLoadMiss;
    /** Full fetched ops by slot; filled only while a retire sink is
     *  attached, so the hot no-sink path never touches it. */
    std::vector<isa::MicroOp> aOp;
    std::uint64_t slotMask = 0;

    // Issue window: bit masks over sequence slots (word = seq >> 6), so
    // scanning words upward from the oldest entry visits age order.
    std::vector<int> stageAt; ///< window stage by age position
    std::vector<std::uint64_t> inWin;
    std::array<std::vector<std::uint64_t>, 3> ready; ///< int, mem, fp
    std::vector<std::uint64_t> presel; ///< latched by last cycle's preselect
    std::uint64_t wordMask = 0;
    std::uint64_t winLo = 0; ///< seq of the oldest entry (if any)
    std::size_t winCount = 0;
    std::size_t readyCount = 0;
    // Per window entry, by slot: its ready-mask class, its sources not
    // yet frozen, and the max frozen source wakeup cycle.
    std::vector<std::uint8_t> wClass;
    std::vector<std::uint8_t> wPending;
    std::vector<std::int64_t> wWakeAt;
    // Wake lists: consumer source node (slot * 2 + source) chains headed
    // by producer slot.
    std::vector<std::uint32_t> wakeHead;
    std::vector<std::uint32_t> wakeNext;
    // Wake calendar: a timing wheel, one bucket per cycle over the next
    // wheelSize cycles; bucket lists chain slots through wheelNext, and
    // a busy bit marks each non-empty bucket.
    static constexpr std::size_t wheelSize = 256;
    std::array<std::uint32_t, wheelSize> wheelHead{};
    std::array<std::uint64_t, wheelSize / 64> wheelBusy{};
    std::vector<std::uint32_t> wheelNext;
    std::vector<InflightRef> issuedScratch;

    std::uint64_t fetchSeq = 0;
    std::uint64_t dispatchSeq = 0;
    std::uint64_t commitSeq = 0;

    std::int64_t now = 0;
    std::int64_t fetchResumeCycle = 0;
    std::uint64_t haltingBranch = ~0ull;
    int frontDepth = 3;
    int lsqOccupancy = 0;
    std::int64_t mispredictShadowEnd = 0;

    util::TraceEventRing *tracer = nullptr;

    trace::RetireSink *retireSink = nullptr;

    std::array<std::uint64_t, isa::numArchRegs> renameMap{};

    trace::TraceSource *source = nullptr;
    trace::DecodedTraceView *view = nullptr;
};

} // namespace fo4::core

#endif // FO4_CORE_BATCHED_OOO_CORE_HH
