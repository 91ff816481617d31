#include "sim/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

CoreModel::CoreModel(int core_id, TraceSource &trace, Llc &shared_llc,
                     int issue_width, int window_entries)
    : id(core_id), gen(trace), llc(shared_llc), width(issue_width),
      windowSize(window_entries)
{
    hira_assert(issue_width > 0 && window_entries > 0);
    // Every live entry holds at least one instruction, so a ring of
    // windowSize entries never overflows.
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(window_entries))
        cap <<= 1;
    ring.assign(cap, Entry{});
    ringMask = cap - 1;
}

void
CoreModel::pushEntry(std::uint64_t count, bool done, Cycle ready_at)
{
    Entry &e = entryAt(tailSeq++);
    e.count = static_cast<std::uint32_t>(count);
    e.done = done;
    e.readyAt = ready_at;
}

void
CoreModel::popInstructions(std::uint64_t n)
{
    while (n > 0) {
        Entry &h = entryAt(headSeq);
        std::uint32_t k = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(h.count, n));
        h.count -= k;
        n -= k;
        occupancy -= k;
        if (h.count == 0)
            ++headSeq;
    }
}

void
CoreModel::dispatchDone(std::uint64_t n, bool &shared)
{
    if (shared) {
        entryAt(tailSeq - 1).count += static_cast<std::uint32_t>(n);
    } else {
        pushEntry(n, true, cpuCycle);
        shared = true;
    }
    occupancy += n;
    if (cpuCycle > maxReadyAt)
        maxReadyAt = cpuCycle;
}

void
CoreModel::tick(Cycle mem_now)
{
    ++cpuCycle;

    // Retire: up to `width` completed instructions, in order from head.
    std::uint64_t budget = static_cast<std::uint64_t>(width);
    while (budget > 0 && occupancy > 0) {
        Entry &h = entryAt(headSeq);
        if (!h.done || h.readyAt > cpuCycle)
            break;
        std::uint64_t n = std::min<std::uint64_t>(h.count, budget);
        budget -= n;
        retired += n;
        popInstructions(n);
    }

    // Dispatch: up to `width` instructions into the tail, stopping at
    // the first that cannot enter (window full or LLC Blocked). A new
    // record is pulled only once the last one is used up and an
    // instruction is wanted, so a pass-through source sees each pull
    // when the core needs it.
    const std::size_t wsize = static_cast<std::size_t>(windowSize);
    std::uint64_t dispatched = 0;
    bool shared = false; // the tail entry is this tick's shared run
    while (dispatched < static_cast<std::uint64_t>(width) &&
           occupancy < wsize) {
        if (runLeft == 0 && !access.isMem) {
            TraceRecord rec = gen.nextRecord();
            hira_assert(rec.nonMem > 0 || rec.access.isMem);
            runLeft = rec.nonMem;
            access = rec.access;
        }
        if (runLeft > 0) {
            std::uint64_t n = std::min<std::uint64_t>(
                {runLeft, static_cast<std::uint64_t>(width) - dispatched,
                 wsize - occupancy});
            runLeft -= n;
            dispatched += n;
            dispatchDone(n, shared);
            continue;
        }
        if (blockedCached && blockedGen == llc.capacityGeneration())
            break; // retry is provably Blocked; skip the probe
        // A load's tag is the sequence number its entry gets.
        LlcResult res =
            llc.access(access.isWrite, access.addr, id, tailSeq, mem_now);
        if (res == LlcResult::Blocked) {
            blockedCached = true;
            blockedGen = llc.capacityGeneration();
            break; // keep the access pending, stall
        }
        blockedCached = false;
        ++dispatched;
        if (access.isWrite) {
            ++stores;
            // Stores are posted (store buffer): retire immediately.
            dispatchDone(1, shared);
        } else {
            ++loads;
            shared = false;
            ++occupancy;
            if (res == LlcResult::Hit) {
                Cycle ready = cpuCycle + llc.hitLatency();
                pushEntry(1, true, ready);
                if (ready > maxReadyAt)
                    maxReadyAt = ready;
            } else {
                pushEntry(1, false, 0);
                ++waitingMemCount;
            }
        }
        access = TraceInst{};
    }
    if (dispatched == 0)
        ++stallCycles;
}

void
CoreModel::onDataReturn(std::uint64_t tag)
{
    // Tags are handed out only to loads that entered the window, and a
    // load cannot retire before its data returns, so its entry is live
    // and waiting.
    hira_assert(tag - headSeq < tailSeq - headSeq);
    Entry &e = entryAt(tag);
    hira_assert(!e.done);
    e.done = true;
    e.readyAt = cpuCycle;
    if (e.readyAt > maxReadyAt)
        maxReadyAt = e.readyAt;
    --waitingMemCount;
}

void
CoreModel::fastForward(Cycle nticks)
{
    if (nticks == 0)
        return;
    count(ffTicksMetric, nticks);
    count(ffCallsMetric);
    if (steadyExhausted()) {
        // Each skipped tick retires `width` and dispatches `width`
        // non-memory instructions: occupancy, loads, stores and
        // stallCycles are unchanged. The source is not pulled: what it
        // holds back (runLeft included) is non-memory only.
        const std::uint64_t w = static_cast<std::uint64_t>(width);
        const Cycle start = cpuCycle;
        const std::uint64_t moved = w * nticks;
        const std::size_t occ = occupancy;
        cpuCycle += nticks;
        retired += moved;
        // The dispatches of the skip are one entry per tick with the
        // exact readyAt the dense loop would have written (newest at
        // the final cpuCycle). Exact, not merely retirable, values
        // matter: resetStats() rewinds cpuCycle, which turns these
        // stamps back into future times, so approximating them would
        // diverge from the cycle engine after a reset. Older survivors
        // keep their pre-skip state untouched.
        if (moved >= occ) {
            // Only the last ceil(occ / w) ticks' dispatches remain.
            headSeq = tailSeq;
            std::uint64_t ticks = (occ + w - 1) / w;
            pushEntry(occ - (ticks - 1) * w, true, cpuCycle - (ticks - 1));
            for (std::uint64_t k = ticks - 1; k-- > 0;)
                pushEntry(w, true, cpuCycle - k);
        } else {
            popInstructions(moved);
            occupancy = occ;
            for (Cycle t = 1; t <= nticks; ++t)
                pushEntry(w, true, start + t);
        }
        if (cpuCycle > maxReadyAt)
            maxReadyAt = cpuCycle;
        return;
    }
    // Stall regime: each skipped tick is {++cpuCycle, ++stallCycles}.
    cpuCycle += nticks;
    stallCycles += nticks;
}

void
CoreModel::resetStats()
{
    retired = 0;
    cpuCycle = 0;
    loads = 0;
    stores = 0;
    stallCycles = 0;
}

} // namespace hira
