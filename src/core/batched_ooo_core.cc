#include "core/batched_ooo_core.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "bp/predictors.hh"
#include "core/prewarm.hh"
#include "core/warm_start.hh"
#include "isa/opclass.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace fo4::core
{

namespace
{

constexpr std::uint64_t noProducer = ~0ull;
constexpr std::uint32_t noNode = ~0u;

/** Ready-mask classes, in `BatchedOooCore::ready` order. */
enum : std::uint8_t { intClass, memClass, fpClass };

/** Reject invalid parameters before any member is constructed. */
const CoreParams &
validated(const CoreParams &params)
{
    params.validateOrThrow();
    return params;
}

std::uint64_t
nextPowerOfTwo(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

BatchedOooCore::BatchedOooCore(const CoreParams &params,
                               std::unique_ptr<bp::BranchPredictor> predictor,
                               std::string predictorKey)
    : prm(validated(params)), bpred(std::move(predictor)),
      bpredKey(std::move(predictorKey)),
      memory(params.dl1, params.l2, params.memLatencies, params.memoryMode)
{
    FO4_ASSERT(bpred != nullptr, "core needs a branch predictor");

    frontDepth = prm.fetchStages + prm.decodeStages + prm.renameStages;

    // Same arena sizing as the reference OooCore: slots must outlive
    // every consumer that can still query a producer.
    const std::uint64_t needed =
        prm.robSize + prm.fetchQueueSize +
        static_cast<std::uint64_t>(frontDepth + 4) * prm.fetchWidth + 64;
    const std::uint64_t size =
        std::max<std::uint64_t>(4096, nextPowerOfTwo(needed * 2));
    aDispatchReady.resize(size);
    aIssueCycle.resize(size);
    aDoneCycle.resize(size);
    aExecLat.resize(size);
    aDepLat.resize(size);
    aAddr.resize(size);
    aCls.resize(size);
    aSrc1.resize(size);
    aSrc2.resize(size);
    aDst.resize(size);
    aMispredicted.resize(size);
    aLoadMiss.resize(size);
    slotMask = size - 1;

    const std::uint64_t words = size / 64;
    wordMask = words - 1;
    inWin.resize(words);
    for (auto &mask : ready)
        mask.resize(words);
    presel.resize(words);
    wClass.resize(size);
    wPending.resize(size);
    wWakeAt.resize(size);
    wakeHead.resize(size, noNode);
    wakeNext.resize(2 * size);
    wheelNext.resize(size);
    stageAt.resize(prm.window.capacity);
    for (int pos = 0; pos < prm.window.capacity; ++pos) {
        stageAt[pos] = std::min(pos / prm.window.entriesPerStage(),
                                prm.window.wakeupStages - 1);
    }
    issuedScratch.reserve(16);
}

isa::MicroOp
BatchedOooCore::nextOp()
{
    if (view != nullptr)
        return trace::unpackTraceRecord(view->nextRecord());
    return source->next();
}

std::int64_t
BatchedOooCore::depReady(InflightRef producer, int stage) const
{
    // The reference WakeupOracle::dependentReadyCycle for an issued
    // producer, devirtualized.
    const int wakeup = prm.issueLatency + prm.extraWakeup + stage;
    const int spacing =
        aDepLat[producer] > wakeup ? aDepLat[producer] : wakeup;
    return aIssueCycle[producer] + spacing;
}

std::size_t
BatchedOooCore::positionOf(std::size_t slot) const
{
    // Entries older than the one in `slot`, which lies in the last
    // arena's worth of dispatched sequence numbers; bits below winLo are
    // never set.
    const std::uint64_t seq =
        dispatchSeq - 1 - ((dispatchSeq - 1 - slot) & slotMask);
    std::size_t pos = 0;
    for (std::uint64_t w = winLo >> 6; w < seq >> 6; ++w)
        pos += std::popcount(inWin[w & wordMask]);
    const std::uint64_t below = (1ull << (seq & 63)) - 1;
    return pos + std::popcount(inWin[(seq >> 6) & wordMask] & below);
}

void
BatchedOooCore::schedule(std::size_t slot)
{
    // Due now: ready.  Otherwise into the bucket of its wake cycle; a
    // wake beyond the wheel parks in the farthest bucket and is
    // rescheduled from there.
    const std::int64_t at = wWakeAt[slot];
    if (at <= now) {
        ready[wClass[slot]][slot >> 6] |= 1ull << (slot & 63);
        ++readyCount;
        return;
    }
    const std::size_t b =
        std::min<std::int64_t>(at, now + wheelSize - 1) & (wheelSize - 1);
    wheelNext[slot] = wheelHead[b];
    wheelHead[b] = static_cast<std::uint32_t>(slot);
    wheelBusy[b >> 6] |= 1ull << (b & 63);
}

void
BatchedOooCore::wakeDue()
{
    const std::size_t b = now & (wheelSize - 1);
    if ((wheelBusy[b >> 6] & (1ull << (b & 63))) == 0)
        return;
    std::uint32_t slot = wheelHead[b];
    wheelHead[b] = noNode;
    wheelBusy[b >> 6] &= ~(1ull << (b & 63));
    while (slot != noNode) {
        const std::uint32_t next = wheelNext[slot];
        schedule(slot);
        slot = next;
    }
}

std::int64_t
BatchedOooCore::nextWake() const
{
    // The first busy bucket after now's: a lower bound on the next wake
    // (exact unless it holds only parked far wakes).
    const std::size_t from = (now + 1) & (wheelSize - 1);
    constexpr std::size_t words = wheelSize / 64;
    for (std::size_t i = 0; i <= words; ++i) {
        const std::size_t w = ((from >> 6) + i) % words;
        std::uint64_t bits = wheelBusy[w];
        if (i == 0)
            bits &= ~0ull << (from & 63);
        if (bits != 0) {
            const std::size_t b = w << 6 | std::countr_zero(bits);
            return now + 1 + ((b - from) & (wheelSize - 1));
        }
    }
    return std::numeric_limits<std::int64_t>::max();
}

void
BatchedOooCore::selectAndRemove()
{
    wakeDue();
    issuedScratch.clear();
    if (readyCount == 0)
        return; // preselect latches only ready entries: none to clear

    // Oldest-first over the ready masks, skipping classes whose issue
    // slots are spent.  Stages are pre-compaction positions.
    const bool partitioned =
        prm.window.select == SelectModel::Partitioned;
    int intLeft = prm.intIssueWidth;
    int fpLeft = prm.fpIssueWidth;
    int memLeft = prm.memIssueWidth;
    std::size_t older = 0;
    for (std::uint64_t w = winLo >> 6; w <= (dispatchSeq - 1) >> 6; ++w) {
        const std::size_t wi = w & wordMask;
        const auto open = [&] {
            return (intLeft > 0 ? ready[intClass][wi] : 0) |
                   (intLeft > 0 && memLeft > 0 ? ready[memClass][wi] : 0) |
                   (fpLeft > 0 ? ready[fpClass][wi] : 0);
        };
        for (std::uint64_t cand = open(); cand != 0;) {
            const std::uint64_t bit = cand & -cand;
            cand &= ~bit;
            if (partitioned && (presel[wi] & bit) == 0 &&
                stageAt[older + std::popcount(inWin[wi] & (bit - 1))] != 0) {
                continue;
            }
            const std::size_t slot = (w << 6 | std::countr_zero(bit)) &
                                     slotMask;
            if (ready[fpClass][wi] & bit) {
                --fpLeft;
            } else {
                memLeft -= (ready[memClass][wi] & bit) != 0;
                --intLeft;
            }
            issuedScratch.push_back(static_cast<InflightRef>(slot));
            cand &= open();
        }
        older += std::popcount(inWin[wi]);
        if (intLeft == 0 && fpLeft == 0)
            break;
    }

    // Compaction: issued entries leave the window and every mask.
    for (const InflightRef ref : issuedScratch) {
        const std::size_t wi = ref >> 6;
        const std::uint64_t keep = ~(1ull << (ref & 63));
        inWin[wi] &= keep;
        ready[wClass[ref]][wi] &= keep;
        presel[wi] &= keep;
    }
    winCount -= issuedScratch.size();
    readyCount -= issuedScratch.size();
    if (winCount == 0) {
        winLo = dispatchSeq;
    } else {
        std::uint64_t w = winLo >> 6;
        std::uint64_t m = inWin[w & wordMask] & (~0ull << (winLo & 63));
        while (m == 0)
            m = inWin[++w & wordMask];
        winLo = w << 6 | std::countr_zero(m);
    }

    if (partitioned)
        preselect();
}

void
BatchedOooCore::preselect()
{
    // Latch next cycle's preselection at the compacted positions: per
    // non-first stage, its oldest ready entries up to the stage's cap.
    std::array<int, 8> capLeft = prm.window.preselectCap;
    std::size_t older = 0;
    for (std::uint64_t w = winLo >> 6;
         winCount != 0 && w <= (dispatchSeq - 1) >> 6; ++w) {
        const std::size_t wi = w & wordMask;
        presel[wi] = 0;
        std::uint64_t cand =
            ready[intClass][wi] | ready[memClass][wi] | ready[fpClass][wi];
        for (; cand != 0; cand &= cand - 1) {
            const std::uint64_t bit = cand & -cand;
            const int capIdx =
                stageAt[older + std::popcount(inWin[wi] & (bit - 1))] - 1;
            if (capIdx >= 0 && capIdx < static_cast<int>(capLeft.size()) &&
                capLeft[capIdx] > 0) {
                --capLeft[capIdx];
                presel[wi] |= bit;
            }
        }
        older += std::popcount(inWin[wi]);
    }
}

void
BatchedOooCore::resetState()
{
    fetchSeq = 0;
    dispatchSeq = 0;
    commitSeq = 0;
    now = 0;
    fetchResumeCycle = 0;
    haltingBranch = ~0ull;
    lsqOccupancy = 0;
    mispredictShadowEnd = 0;
    renameMap.fill(noProducer);
    std::fill(inWin.begin(), inWin.end(), 0);
    for (auto &mask : ready)
        std::fill(mask.begin(), mask.end(), 0);
    std::fill(presel.begin(), presel.end(), 0);
    winLo = 0;
    winCount = 0;
    readyCount = 0;
    wheelHead.fill(noNode);
    wheelBusy.fill(0);
}

void
BatchedOooCore::doCommit(SimResult &result)
{
    for (int i = 0; i < prm.commitWidth; ++i) {
        if (commitSeq == dispatchSeq)
            return;
        const std::size_t h = slotIx(commitSeq);
        if (aIssueCycle[h] < 0 ||
            aDoneCycle[h] + (prm.commitStages - 1) > now) {
            return;
        }
        if (isa::isMemory(aCls[h]))
            --lsqOccupancy;
        if (tracer != nullptr && tracer->wants(now)) {
            const char *name = isa::opClassName(aCls[h]);
            const std::uint64_t seq = commitSeq;
            tracer->emit({name, "pipeline", 0,
                          aDispatchReady[h] - frontDepth, frontDepth, seq});
            if (aIssueCycle[h] > aDispatchReady[h])
                tracer->emit({name, "pipeline", 1, aDispatchReady[h],
                              aIssueCycle[h] - aDispatchReady[h], seq});
            tracer->emit({name, "pipeline", 2, aIssueCycle[h],
                          aDoneCycle[h] - aIssueCycle[h], seq});
            tracer->emit({name, "pipeline", 3, now, 1, seq});
        }
        if (retireSink != nullptr)
            retireSink->onRetire(aOp[h]);
        ++result.instructions;
        ++commitSeq;
    }
}

void
BatchedOooCore::doIssue()
{
    selectAndRemove();
    for (const InflightRef ref : issuedScratch) {
        aIssueCycle[ref] = now;
        aDoneCycle[ref] = now + prm.regReadStages + aExecLat[ref];
        if (aMispredicted[ref] &&
            (haltingBranch & slotMask) == ref && haltingBranch != ~0ull) {
            fetchResumeCycle =
                aDoneCycle[ref] + prm.extraMispredictPenalty + 1;
            haltingBranch = ~0ull;
            mispredictShadowEnd = fetchResumeCycle + frontDepth;
        }
        // The broadcast reaches each waiting consumer at the stage it
        // holds after this cycle's compaction.
        for (std::uint32_t node = wakeHead[ref]; node != noNode;
             node = wakeNext[node]) {
            const std::size_t slot = node >> 1;
            const int stage = prm.window.wakeupStages == 1
                                  ? 0
                                  : stageAt[positionOf(slot)];
            wWakeAt[slot] = std::max(wWakeAt[slot], depReady(ref, stage));
            if (--wPending[slot] == 0)
                schedule(slot);
        }
    }
}

void
BatchedOooCore::doDispatch(SimResult &result)
{
    for (int i = 0; i < prm.renameWidth; ++i) {
        if (dispatchSeq == fetchSeq)
            return;
        const std::size_t h = slotIx(dispatchSeq);
        if (aDispatchReady[h] > now)
            return;
        if (winCount >= static_cast<std::size_t>(prm.window.capacity)) {
            if (i == 0)
                ++result.dispatchWindowFull;
            return;
        }
        if (dispatchSeq - commitSeq >=
            static_cast<std::uint64_t>(prm.robSize)) {
            if (i == 0)
                ++result.dispatchRobFull;
            return;
        }
        const bool memOp = isa::isMemory(aCls[h]);
        if (memOp && lsqOccupancy >= prm.lsqSize) {
            if (i == 0)
                ++result.dispatchLsqFull;
            return;
        }

        // Sources whose producers already issued freeze at the entry's
        // dispatch position; the rest wait on their producers' lists.
        wClass[h] = isa::isFloat(aCls[h]) ? fpClass
                    : memOp               ? memClass
                                          : intClass;
        wPending[h] = 0;
        wWakeAt[h] = -1;
        const int stage = stageAt[winCount];
        std::uint32_t node = static_cast<std::uint32_t>(h) * 2;
        for (const std::int16_t src : {aSrc1[h], aSrc2[h]}) {
            if (src == isa::noReg)
                continue;
            const std::uint64_t pseq = renameMap[src];
            if (pseq == noProducer || pseq < commitSeq)
                continue;
            const auto p = static_cast<InflightRef>(pseq & slotMask);
            if (aIssueCycle[p] >= 0) {
                wWakeAt[h] = std::max(wWakeAt[h], depReady(p, stage));
            } else {
                ++wPending[h];
                wakeNext[node] = wakeHead[p];
                wakeHead[p] = node++;
            }
        }
        inWin[h >> 6] |= 1ull << (h & 63);
        if (winCount++ == 0)
            winLo = dispatchSeq;
        if (wPending[h] == 0)
            schedule(h);

        aExecLat[h] = prm.execLatency(aCls[h]);
        aDepLat[h] = aExecLat[h];
        if (aCls[h] == isa::OpClass::Load) {
            const std::uint64_t missesBefore = memory.dl1().misses();
            aDepLat[h] =
                memory.loadLatency(aAddr[h], now) + prm.extraLoadUse;
            aExecLat[h] = aDepLat[h];
            aLoadMiss[h] = memory.dl1().misses() != missesBefore;
        } else if (aCls[h] == isa::OpClass::Store) {
            memory.storeLatency(aAddr[h], now);
        }

        if (aDst[h] != isa::noReg)
            renameMap[aDst[h]] = dispatchSeq;
        if (memOp)
            ++lsqOccupancy;

        ++dispatchSeq;
    }
}

void
BatchedOooCore::doFetch(SimResult &result)
{
    if (now < fetchResumeCycle || haltingBranch != ~0ull)
        return;

    const std::uint64_t frontCap =
        prm.fetchQueueSize +
        static_cast<std::uint64_t>(frontDepth) * prm.fetchWidth;

    for (int i = 0; i < prm.fetchWidth; ++i) {
        if (fetchSeq - dispatchSeq >= frontCap)
            return;
        const isa::MicroOp op = nextOp();

        const std::size_t h = slotIx(fetchSeq);
        if (retireSink != nullptr)
            aOp[h] = op;
        aDispatchReady[h] = now + frontDepth;
        aIssueCycle[h] = -1;
        wakeHead[h] = noNode;
        aDoneCycle[h] = -1;
        aExecLat[h] = 1;
        aDepLat[h] = 1;
        aAddr[h] = op.addr;
        aCls[h] = op.cls;
        aSrc1[h] = op.src1;
        aSrc2[h] = op.src2;
        aDst[h] = op.dst;
        aMispredicted[h] = 0;
        aLoadMiss[h] = 0;
        const std::uint64_t seq = fetchSeq;
        ++fetchSeq;

        if (op.isBranch()) {
            ++result.branches;
            const bool predicted = bpred->predict(op);
            bpred->update(op, op.taken);
            if (predicted != op.taken) {
                ++result.mispredicts;
                aMispredicted[h] = 1;
                haltingBranch = seq;
                return; // fetch halts until the branch resolves
            }
            if (op.taken) {
                // Redirect bubble on correctly predicted taken branches.
                fetchResumeCycle = now + 2;
                return;
            }
        } else if (op.isLoad()) {
            ++result.loads;
        } else if (op.isStore()) {
            ++result.stores;
        }
    }
}

StallCause
BatchedOooCore::classifyStall() const
{
    if (commitSeq == dispatchSeq) {
        return (haltingBranch != ~0ull || now < mispredictShadowEnd)
                   ? StallCause::BranchMispredict
                   : StallCause::FrontEnd;
    }
    const std::size_t h = slotIx(commitSeq);
    if (aIssueCycle[h] >= 0) {
        if (aCls[h] == isa::OpClass::Load)
            return aLoadMiss[h] ? StallCause::DcacheMiss
                                : StallCause::RawLoadUse;
        return StallCause::Execute;
    }
    return StallCause::WindowFull;
}

std::int64_t
BatchedOooCore::skipIdleSpan(SimResult &result, OccupancySample &occ,
                             std::uint64_t limit)
{
    // A span may be skipped only when commit, issue, dispatch and fetch
    // are all provably inert for every cycle of the span.  Each stage
    // either proves it cannot act before a known event cycle (which
    // bounds the span) or forces a normal per-cycle walk.
    std::int64_t event = std::numeric_limits<std::int64_t>::max();

    // Commit: the head either retires this cycle (bail) or pins the
    // span's stall cause and, if issued, bounds the span at the cycle
    // its commit-stage traversal completes.
    const bool robEmpty = commitSeq == dispatchSeq;
    if (!robEmpty) {
        const std::size_t h = slotIx(commitSeq);
        if (aIssueCycle[h] >= 0) {
            const std::int64_t commitAt =
                aDoneCycle[h] + (prm.commitStages - 1);
            if (commitAt <= now)
                return 0;
            event = std::min(event, commitAt);
        }
        // An unissued head wakes no earlier than the window's first
        // wake event, folded in below.
    }

    // Issue: a ready entry can be selected (or latched by preselect), so
    // nothing may be ready; the wake calendar bounds the span.  Entries
    // still waiting on an unissued producer cannot wake
    // before some other entry issues — they never bound the span.
    wakeDue();
    if (readyCount != 0)
        return 0;
    event = std::min(event, nextWake());

    // Dispatch: blocked on a future ready cycle (bounds the span) or on
    // a structural limit that cannot clear while nothing commits or
    // issues (charged per cycle, reference check order).
    std::uint64_t *dispatchCounter = nullptr;
    if (dispatchSeq != fetchSeq) {
        const std::size_t h = slotIx(dispatchSeq);
        if (aDispatchReady[h] > now) {
            event = std::min(event, aDispatchReady[h]);
        } else if (winCount >=
                   static_cast<std::size_t>(prm.window.capacity)) {
            dispatchCounter = &result.dispatchWindowFull;
        } else if (dispatchSeq - commitSeq >=
                   static_cast<std::uint64_t>(prm.robSize)) {
            dispatchCounter = &result.dispatchRobFull;
        } else if (isa::isMemory(aCls[h]) &&
                   lsqOccupancy >= prm.lsqSize) {
            dispatchCounter = &result.dispatchLsqFull;
        } else {
            return 0; // the head would dispatch this cycle
        }
    }

    // Fetch: halted on an unresolved mispredict (cleared only by issue,
    // which cannot happen in the span), redirected until a future cycle
    // (bounds the span), or stopped at the front-end capacity (constant
    // while nothing dispatches).
    if (haltingBranch == ~0ull) {
        if (now < fetchResumeCycle) {
            event = std::min(event, fetchResumeCycle);
        } else {
            const std::uint64_t frontCap =
                prm.fetchQueueSize +
                static_cast<std::uint64_t>(frontDepth) * prm.fetchWidth;
            if (fetchSeq - dispatchSeq < frontCap)
                return 0; // fetch would run this cycle
        }
    }

    // Stall cause, constant across the span.  The only time-dependent
    // classification — empty ROB leaving the mispredict shadow — bounds
    // the span at the shadow's end instead.
    StallCause cause;
    if (robEmpty) {
        if (haltingBranch != ~0ull) {
            cause = StallCause::BranchMispredict;
        } else if (now < mispredictShadowEnd) {
            cause = StallCause::BranchMispredict;
            event = std::min(event, mispredictShadowEnd);
        } else {
            cause = StallCause::FrontEnd;
        }
    } else {
        cause = classifyStall();
    }

    const std::int64_t end =
        std::min(event, static_cast<std::int64_t>(limit));
    const std::int64_t n = end - now;
    if (n <= 0)
        return 0;

    // Bulk accounting: exactly what n reference zero-commit cycles
    // would have charged.
    result.stallCycles += static_cast<std::uint64_t>(n);
    result.stalls[cause] += static_cast<std::uint64_t>(n);
    if (dispatchCounter != nullptr)
        *dispatchCounter += static_cast<std::uint64_t>(n);
    occ.robSum += (dispatchSeq - commitSeq) * static_cast<std::uint64_t>(n);
    occ.windowSum += winCount * static_cast<std::uint64_t>(n);
    occ.frontSum += (fetchSeq - dispatchSeq) * static_cast<std::uint64_t>(n);
    occ.lsqSum += static_cast<std::uint64_t>(lsqOccupancy) *
                  static_cast<std::uint64_t>(n);
    occ.cycles += static_cast<std::uint64_t>(n);
    now = end;
    return n;
}

SimResult
BatchedOooCore::run(trace::TraceSource &trace, std::uint64_t instructions,
                    std::uint64_t warmup, std::uint64_t prewarm,
                    std::uint64_t cycleLimit, const util::CancelToken *cancel)
{
    if (instructions == 0)
        throw util::ConfigError("nothing to simulate (instructions=0)");
    trace.reset();
    resetState();

    view = dynamic_cast<trace::DecodedTraceView *>(&trace);
    bool warmed = false;
    if (prewarm > 0 && view != nullptr && !bpredKey.empty()) {
        // One shared prewarm per sweep column instead of one per cell.
        const auto warm = WarmStartCache::global().acquire(
            view->trace(), prewarm, prm, *bpred, bpredKey);
        memory.adoptWarmState(warm->memory);
        bpred = warm->bpred->clone();
        warmed = true;
    }
    if (!warmed) {
        memory.reset();
        bpred->reset();
        if (prewarm > 0)
            prewarmState(trace, prewarm, memory, *bpred);
    }
    source = &trace;

    const std::uint64_t total = warmup + instructions;
    SimResult result;
    SimResult atWarmup;
    bool warmupDone = warmup == 0;
    const std::uint64_t dl1Miss0 = memory.dl1().misses();
    const std::uint64_t l2Miss0 = memory.l2().misses();

    OccupancySample occ;
    const std::uint64_t limit =
        cycleLimit ? cycleLimit : total * 1000 + 100000;
    while (result.instructions < total) {
        // The warmup snapshot can never land inside a skipped span: the
        // committed count is constant there and the snapshot condition
        // was already false when the preceding cycle checked it.
        if (skipIdleSpan(result, occ, limit) > 0) {
            if (static_cast<std::uint64_t>(now) >= limit) {
                source = nullptr;
                view = nullptr;
                throw util::DeadlockError(
                    watchdogDump(result, total, limit));
            }
            if (cancel && cancel->cancelled()) {
                source = nullptr;
                view = nullptr;
                throw util::CancelledError(util::strprintf(
                    "out-of-order simulation cancelled at cycle %lld "
                    "after %llu of %llu instructions",
                    static_cast<long long>(now),
                    static_cast<unsigned long long>(result.instructions),
                    static_cast<unsigned long long>(total)));
            }
            continue;
        }
        const std::uint64_t committedBefore = result.instructions;
        doCommit(result);
        if (result.instructions == committedBefore) {
            ++result.stallCycles;
            ++result.stalls[classifyStall()];
        }
        occ.robSum += dispatchSeq - commitSeq;
        occ.windowSum += winCount;
        occ.frontSum += fetchSeq - dispatchSeq;
        occ.lsqSum += static_cast<std::uint64_t>(lsqOccupancy);
        ++occ.cycles;
        if (!warmupDone && result.instructions >= warmup) {
            result.occupancy = occ;
            atWarmup = result;
            atWarmup.cycles = static_cast<std::uint64_t>(now);
            atWarmup.dl1Misses = memory.dl1().misses() - dl1Miss0;
            atWarmup.l2Misses = memory.l2().misses() - l2Miss0;
            warmupDone = true;
        }
        if (result.instructions >= total)
            break;
        doIssue();
        doDispatch(result);
        doFetch(result);
        ++now;
        if (static_cast<std::uint64_t>(now) >= limit) {
            source = nullptr;
            view = nullptr;
            throw util::DeadlockError(watchdogDump(result, total, limit));
        }
        if (cancel && cancel->cancelled()) {
            source = nullptr;
            view = nullptr;
            throw util::CancelledError(util::strprintf(
                "out-of-order simulation cancelled at cycle %lld after "
                "%llu of %llu instructions",
                static_cast<long long>(now),
                static_cast<unsigned long long>(result.instructions),
                static_cast<unsigned long long>(total)));
        }
    }

    result.occupancy = occ;
    result.cycles = static_cast<std::uint64_t>(now);
    result.dl1Misses = memory.dl1().misses() - dl1Miss0;
    result.l2Misses = memory.l2().misses() - l2Miss0;
    source = nullptr;
    view = nullptr;
    return result - atWarmup;
}

util::DeadlockDump
BatchedOooCore::watchdogDump(const SimResult &result, std::uint64_t total,
                             std::uint64_t limit) const
{
    util::DeadlockDump dump;
    dump.model = "out-of-order";
    dump.cycle = now;
    dump.cycleLimit = limit;
    dump.committed = result.instructions;
    dump.target = total;
    dump.robOccupancy = dispatchSeq - commitSeq;
    dump.windowOccupancy = winCount;
    dump.frontEndOccupancy = fetchSeq - dispatchSeq;
    dump.lsqOccupancy = lsqOccupancy;
    if (commitSeq != dispatchSeq) {
        const std::size_t h = slotIx(commitSeq);
        dump.oldestStalled = util::strprintf(
            "%s seq=%llu dispatchReady=%lld issue=%lld done=%lld",
            isa::opClassName(aCls[h]),
            static_cast<unsigned long long>(commitSeq),
            static_cast<long long>(aDispatchReady[h]),
            static_cast<long long>(aIssueCycle[h]),
            static_cast<long long>(aDoneCycle[h]));
    } else if (dispatchSeq != fetchSeq) {
        const std::size_t h = slotIx(dispatchSeq);
        dump.oldestStalled = util::strprintf(
            "%s seq=%llu waiting to dispatch (ready cycle %lld)",
            isa::opClassName(aCls[h]),
            static_cast<unsigned long long>(dispatchSeq),
            static_cast<long long>(aDispatchReady[h]));
    }
    return dump;
}

std::unique_ptr<Core>
makeBatchedOooCore(const CoreParams &params, const std::string &predictor)
{
    return std::make_unique<BatchedOooCore>(
        params, bp::makePredictor(predictor), predictor);
}

} // namespace fo4::core
