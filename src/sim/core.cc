#include "sim/core.hh"

#include "common/logging.hh"

namespace hira {

CoreModel::CoreModel(int core_id, TraceSource &trace, Llc &shared_llc,
                     int issue_width, int window_entries)
    : id(core_id), gen(trace), llc(shared_llc), width(issue_width),
      windowSize(window_entries)
{
    hira_assert(issue_width > 0 && window_entries > 0);
    window.assign(static_cast<std::size_t>(window_entries), Slot{});
}

void
CoreModel::tick(Cycle mem_now)
{
    ++cpuCycle;

    // Retire: up to `width` completed instructions, in order from head.
    for (int i = 0; i < width && occupancy > 0; ++i) {
        Slot &s = window[head];
        if (!s.done || s.readyAt > cpuCycle)
            break;
        s.valid = false;
        if (++head == window.size())
            head = 0;
        --occupancy;
        ++retired;
    }

    // Dispatch: up to `width` instructions into the tail, stopping at
    // the first that cannot enter (window full or LLC Blocked).
    int dispatched = 0;
    for (; dispatched < width; ++dispatched) {
        if (occupancy >= window.size())
            break;
        if (!hasPendingInst) {
            pendingInst = gen.next();
            hasPendingInst = true;
            blockedCached = false;
        }
        Slot &s = window[tail];
        s.valid = true;
        s.tag = 0;
        s.waitingMem = false;
        if (!pendingInst.isMem) {
            s.done = true;
            s.readyAt = cpuCycle;
        } else {
            if (blockedCached && blockedGen == llc.capacityGeneration())
                break; // retry is provably Blocked; skip the probe
            std::uint64_t tag = nextTag++;
            LlcResult res = llc.access(pendingInst.isWrite, pendingInst.addr,
                                       id, tag, mem_now);
            if (res == LlcResult::Blocked) {
                blockedCached = true;
                blockedGen = llc.capacityGeneration();
                break; // keep the instruction pending, stall
            }
            blockedCached = false;
            if (pendingInst.isWrite) {
                ++stores;
                // Stores are posted (store buffer): retire immediately.
                s.done = true;
                s.readyAt = cpuCycle;
            } else {
                ++loads;
                if (res == LlcResult::Hit) {
                    s.done = true;
                    s.readyAt = cpuCycle +
                                static_cast<Cycle>(30); // LLC hit latency
                } else {
                    s.done = false;
                    s.tag = tag;
                    s.waitingMem = true;
                    ++waitingMemCount;
                }
            }
        }
        if (s.done && s.readyAt > maxReadyAt)
            maxReadyAt = s.readyAt;
        hasPendingInst = false;
        if (++tail == window.size())
            tail = 0;
        ++occupancy;
    }
    if (dispatched == 0)
        ++stallCycles;
}

void
CoreModel::onDataReturn(std::uint64_t tag)
{
    // The window is small (128); a linear scan per return is cheap.
    for (Slot &s : window) {
        if (s.valid && s.waitingMem && s.tag == tag) {
            s.done = true;
            s.waitingMem = false;
            s.readyAt = cpuCycle;
            if (s.readyAt > maxReadyAt)
                maxReadyAt = s.readyAt;
            --waitingMemCount;
            return;
        }
    }
    // Returns for slots that already left the measurement window (e.g.,
    // after a stats reset) are harmless.
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
        // stallCycles are unchanged; the ring advances width per tick.
        std::size_t wsize = window.size();
        cpuCycle += nticks;
        retired += static_cast<std::uint64_t>(width) * nticks;
        std::size_t adv = static_cast<std::size_t>(
            (static_cast<std::uint64_t>(width) * nticks) % wsize);
        head = (head + adv) % wsize;
        tail = (tail + adv) % wsize;
        for (std::size_t pos = 0; pos < wsize; ++pos) {
            // Ring membership relative to the advanced head.
            std::size_t off = (pos + wsize - head) % wsize;
            if (off >= occupancy)
                window[pos].valid = false;
        }
        // Stamp the slots (re)dispatched during the skip with the exact
        // per-tick readyAt the dense loop would have written (width
        // dispatches per tick, newest at the final cpuCycle). Exact —
        // not merely "retirable" — values matter: resetStats() rewinds
        // cpuCycle, which turns these stamps back into future times, so
        // approximating them would diverge from the cycle engine after
        // a reset. Older survivors keep their pre-skip state untouched.
        std::uint64_t redispatched =
            std::min(static_cast<std::uint64_t>(width) * nticks,
                     static_cast<std::uint64_t>(occupancy));
        for (std::uint64_t j = 0; j < redispatched; ++j) {
            // j counts back from the newest slot.
            std::size_t pos =
                (head + occupancy - 1 - static_cast<std::size_t>(j)) %
                wsize;
            Slot &s = window[pos];
            s.valid = true;
            s.done = true;
            s.waitingMem = false;
            s.tag = 0;
            s.readyAt = cpuCycle - j / static_cast<std::uint64_t>(width);
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
