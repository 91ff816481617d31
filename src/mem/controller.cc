#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

MemoryController::MemoryController(int channel_id,
                                   const ControllerConfig &config,
                                   std::unique_ptr<RefreshScheme> scheme)
    : channel(channel_id),
      cfg(config),
      model(config.geom, config.tp),
      refreshScheme(std::move(scheme)),
      paraSampler(config.para)
{
    hira_assert(refreshScheme != nullptr);
    const std::size_t nbanks =
        static_cast<std::size_t>(cfg.geom.banksPerChannel());
    rankHold.assign(static_cast<std::size_t>(cfg.geom.ranksPerChannel),
                    false);
    preventiveVictims.resize(nbanks);
    readQ.resize(nbanks);
    writeQ.resize(nbanks);
    for (BankBits *bits : {&refreshOpen, &preventivePending, &readQueued,
                           &writeQueued, &readHit, &writeHit}) {
        bits->resize(nbanks);
    }
    recorder.setEnabled(cfg.recordTrace);

    // Metrics registration (cold path; every pointer stays nullptr when
    // the scope is disabled). Queue-depth capacity +1 so the full-queue
    // depth lands in its own bin rather than clamping into the last one.
    const MetricScope &ms = cfg.metrics;
    mRowHits = ms.counter("row_hits");
    mRowMisses = ms.counter("row_misses");
    mRowConflicts = ms.counter("row_conflicts");
    mWakeRecomputes = ms.counter("wake_recomputes");
    mWakeLowers = ms.counter("wake_enqueue_lowers");
    mReadQDepth = ms.histogram("read_q_depth", 0.0,
                               static_cast<double>(cfg.readQueueCap + 1),
                               16);
    mWriteQDepth = ms.histogram(
        "write_q_depth", 0.0,
        static_cast<double>(cfg.writeQueueCap + 1), 16);
    mBankReads.resize(nbanks, nullptr);
    mBankWrites.resize(nbanks, nullptr);
    if (ms.registry() != nullptr) {
        for (std::size_t i = 0; i < nbanks; ++i) {
            MetricScope bank = ms.sub(strprintf("bank%zu", i));
            mBankReads[i] = bank.counter("reads");
            mBankWrites[i] = bank.counter("writes");
        }
    }
    refreshScheme->attach(this, ms.sub("scheme"));
}

void
MemoryController::syncBankBits(std::size_t idx)
{
    const RowId open = model.openRow(idx);
    auto hits = [open](const BankQueue &q) {
        return std::any_of(q.begin(), q.end(), [open](const Queued &e) {
            return e.req.da.row == open;
        });
    };
    readQueued.assign(idx, !readQ[idx].empty());
    writeQueued.assign(idx, !writeQ[idx].empty());
    readHit.assign(idx, hits(readQ[idx]));
    writeHit.assign(idx, hits(writeQ[idx]));
}

std::string
MemoryController::countIndexAudit() const
{
    std::size_t reads = 0, writes = 0;
    for (std::size_t i = 0; i < readQ.size(); ++i) {
        bool hit[2] = {false, false}; // [0] writes, [1] reads
        for (int is_read = 0; is_read < 2; ++is_read) {
            const BankQueue &q = is_read ? readQ[i] : writeQ[i];
            const MemType type = is_read ? MemType::Read : MemType::Write;
            for (std::size_t k = 0; k < q.size(); ++k) {
                const Request &r = q[k].req;
                const std::size_t at = model.bankIndex(r.da.rank, r.da.bank);
                if (at != i || r.type != type)
                    return strprintf("bank %zu: queues a request of bank "
                                     "%zu or of the other class", i, at);
                if (k > 0 && q[k - 1].seq >= q[k].seq)
                    return strprintf("bank %zu: queue out of arrival "
                                     "order", i);
                hit[is_read] |= model.openRow(i) == r.da.row;
            }
        }
        reads += readQ[i].size();
        writes += writeQ[i].size();
        if (readQueued.test(i) != !readQ[i].empty() ||
            writeQueued.test(i) != !writeQ[i].empty() ||
            readHit.test(i) != hit[1] || writeHit.test(i) != hit[0]) {
            return strprintf("bank %zu: bits r/w/rhit/whit %d/%d/%d/%d, "
                             "queues %zu/%zu/%d/%d",
                             i, readQueued.test(i), writeQueued.test(i),
                             readHit.test(i), writeHit.test(i),
                             readQ[i].size(), writeQ[i].size(), hit[1],
                             hit[0]);
        }
    }
    if (reads != nReads || writes != nWrites)
        return strprintf("totals r/w %zu/%zu, queues %zu/%zu", nReads,
                         nWrites, reads, writes);
    return "";
}

void
MemoryController::setRankHold(int rank, bool hold)
{
    rankHold[static_cast<std::size_t>(rank)] = hold;
}

bool
MemoryController::rankHeld(int rank) const
{
    return rankHold[static_cast<std::size_t>(rank)];
}

std::vector<Command>
MemoryController::trace() const
{
    std::vector<Command> t = recorder.commands();
    std::stable_sort(t.begin(), t.end(),
                     [](const Command &a, const Command &b) {
                         return a.cycle < b.cycle;
                     });
    return t;
}

bool
MemoryController::enqueue(const Request &req)
{
    hira_assert(req.da.channel == channel);
    // Wake the event engine exactly when the dense loop would first see
    // an accepted request: this same cycle if our tick is still ahead
    // of us in the current cycle's controller phase, the next cycle if
    // we already ticked (lastTick == arrival). When the cache is
    // invalid (we ticked this cycle and nobody queried since), the lazy
    // recompute sees the queued request itself. Rejected requests leave
    // the controller untouched and owe no wake — lowering the wake on
    // the LLC's per-cycle outbound retries would pin a full controller
    // to dense polling for as long as its queue stays full.
    auto lowerWake = [this, &req]() {
        Cycle seen = lastTick == req.arrival ? req.arrival + 1
                                             : req.arrival;
        if (nextWakeValid && seen < nextWake)
            nextWake = seen;
        count(mWakeLowers);
    };
    const std::size_t idx = model.bankIndex(req.da.rank, req.da.bank);
    const bool is_read = req.type == MemType::Read;
    if (is_read) {
        // Forward from a queued write to the same line. The forward
        // serves the read (fixed latency, data from the write queue),
        // so it counts toward readsServed / readLatencySum like any
        // other completed read; `forwards` stays as the sub-count. A
        // line decodes to one bank, so only that bank's writes can
        // match.
        for (const Queued &w : writeQ[idx]) {
            if (w.req.addr == req.addr) {
                completions_.push_back(
                    {req.tag, req.coreId, req.arrival + 4});
                ++stats_.forwards;
                ++stats_.readsServed;
                stats_.readLatencySum += 4;
                lowerWake();
                return true;
            }
        }
    }
    if (is_read ? readQueueFull() : writeQueueFull()) {
        ++stats_.rejectedRequests;
        return false;
    }
    (is_read ? readQ : writeQ)[idx].push_back({nextSeq++, req});
    ++(is_read ? nReads : nWrites);
    count((is_read ? mBankReads : mBankWrites)[idx]);
    (is_read ? readQueued : writeQueued).assign(idx, true);
    if (model.openRow(idx) == req.da.row)
        (is_read ? readHit : writeHit).assign(idx, true);
    lowerWake();
    return true;
}

void
MemoryController::record(CommandType type, Cycle cycle, std::size_t idx,
                         RowId row, HiraRole role)
{
    if (!recorder.isEnabled())
        return;
    Command c;
    c.type = type;
    c.cycle = cycle;
    c.channel = channel;
    c.rank = model.rankOf(idx);
    c.bank = model.bankOf(idx);
    c.row = row;
    c.hiraRole = role;
    recorder.record(c);
}

void
MemoryController::markIssued()
{
    hira_assert(!issuedThisCycle);
    issuedThisCycle = true;
}

bool
MemoryController::slotReservedAt(Cycle c) const
{
    return std::find(reservedSlots.begin(), reservedSlots.end(), c) !=
           reservedSlots.end();
}

bool
MemoryController::hiraSlotsFree(Cycle now) const
{
    const TimingCycles &tcy = model.cycles();
    return !slotReservedAt(now + tcy.c1) &&
           !slotReservedAt(now + tcy.hiraSpan());
}

bool
MemoryController::busFree(Cycle now) const
{
    return !issuedThisCycle && !slotReservedAt(now);
}

// --------------------------------------------------------------------
// Refresh-scheme primitives
// --------------------------------------------------------------------

bool
MemoryController::tryRef(int rank, Cycle now)
{
    if (!busFree(now))
        return false;
    const std::size_t first = model.bankIndex(rank, 0);
    const std::size_t end = first + cfg.geom.banksPerRank();
    for (std::size_t idx = first; idx < end; ++idx) {
        if (model.openRow(idx) != kNoRow)
            return false;
    }
    if (model.earliestRef(rank) > now)
        return false;
    model.issueRef(rank, now);
    record(CommandType::REF, now, first, 0);
    markIssued();
    ++stats_.refs;
    return true;
}

bool
MemoryController::tryCloseOneBank(int rank, Cycle now)
{
    if (!busFree(now))
        return false;
    const std::size_t first = model.bankIndex(rank, 0);
    const std::size_t end = first + cfg.geom.banksPerRank();
    for (std::size_t idx = first; idx < end; ++idx) {
        if (model.openRow(idx) != kNoRow && model.earliestPre(idx) <= now)
            return tryPre(idx, now);
    }
    return false;
}

bool
MemoryController::tryPre(std::size_t idx, Cycle now)
{
    if (!busFree(now) || model.openRow(idx) == kNoRow ||
        model.earliestPre(idx) > now) {
        return false;
    }
    model.issuePre(idx, now);
    record(CommandType::PRE, now, idx, 0);
    markIssued();
    ++stats_.pres;
    // Row closed: nothing hits it any more.
    refreshOpen.assign(idx, false);
    readHit.assign(idx, false);
    writeHit.assign(idx, false);
    return true;
}

bool
MemoryController::tryRefreshAct(std::size_t idx, RowId row, Cycle now)
{
    if (!busFree(now) || rankHeld(model.rankOf(idx)) ||
        model.openRow(idx) != kNoRow || model.earliestAct(idx) > now) {
        return false;
    }
    model.issueAct(idx, row, now);
    record(CommandType::ACT, now, idx, row);
    markIssued();
    refreshOpen.assign(idx, true);
    syncBankBits(idx); // a refresh row can match queued requests
    onRowActivation(idx, row, now);
    return true;
}

Cycle
MemoryController::issueHira(std::size_t idx, RowId first, RowId second,
                            Cycle now)
{
    const TimingCycles &tcy = model.cycles();
    Cycle second_at = model.issueHira(idx, first, second, now);
    record(CommandType::ACT, now, idx, first, HiraRole::FirstAct);
    record(CommandType::PRE, now + tcy.c1, idx, 0, HiraRole::CutPre);
    record(CommandType::ACT, second_at, idx, second, HiraRole::SecondAct);
    reservedSlots.push_back(now + tcy.c1);
    reservedSlots.push_back(second_at);
    markIssued();
    ++stats_.hiraOps;
    syncBankBits(idx); // bank now open with `second`
    return second_at;
}

bool
MemoryController::tryHiraRefreshPair(std::size_t idx, RowId first,
                                     RowId second, Cycle now)
{
    if (!busFree(now) || rankHeld(model.rankOf(idx)) ||
        model.openRow(idx) != kNoRow || model.earliestHira(idx) > now ||
        !hiraSlotsFree(now)) {
        return false;
    }
    Cycle second_at = issueHira(idx, first, second, now);
    // Auto-PRE after the second tRAS.
    refreshOpen.assign(idx, true);
    onRowActivation(idx, first, now);
    onRowActivation(idx, second, second_at);
    return true;
}

void
MemoryController::onRowActivation(std::size_t idx, RowId row, Cycle now)
{
    ++stats_.acts;
    refreshScheme->onActivate(idx, row, now);
    if (!paraSampler.enabled())
        return;
    RowId victim = paraSampler.sample(row, cfg.geom.rowsPerBank);
    if (victim == kNoRow)
        return;
    ++paraSampler.generated;
    if (cfg.paraImmediate) {
        preventiveVictims[idx].push_back(victim);
        preventivePending.assign(idx, true);
    }
    // In PreventiveRC mode the scheme saw the activation via onActivate
    // and does its own (slack-adjusted) sampling.
}

// --------------------------------------------------------------------
// Per-cycle operation
// --------------------------------------------------------------------

void
MemoryController::tick(Cycle now)
{
    issuedThisCycle = false;
    lastTick = now;
    // Occupancy at tick entry; under the event engine this samples only
    // executed cycles (skipped cycles have provably unchanged queues).
    observe(mReadQDepth, static_cast<double>(nReads));
    observe(mWriteQDepth, static_cast<double>(nWrites));
    // Retire expired HiRA bus-slot reservations (at most a handful of
    // future slots; plain index compaction, nothing allocates here).
    if (!reservedSlots.empty()) {
        std::size_t kept = 0;
        for (Cycle c : reservedSlots) {
            if (c >= now)
                reservedSlots[kept++] = c;
        }
        reservedSlots.resize(kept);
    }

    autoPreTick(now);
    if (!issuedThisCycle && !slotReservedAt(now))
        refreshScheme->tick(now);
    if (!issuedThisCycle)
        preventiveTick(now);
    if (!issuedThisCycle)
        scheduleDemand(now);
    nextWakeValid = false; // state changed; nextEvent() recomputes
}

void
MemoryController::preventiveTick(Cycle now)
{
    if (!cfg.paraImmediate || !paraSampler.enabled() || !busFree(now))
        return;
    // Round-robin from the cursor over the banks with pending victims:
    // the bits at or above it, then the ones below.
    preventivePending.anyOfFrom(preventiveCursor, [&](std::size_t idx) {
        if (refreshOpen.test(idx))
            return false;
        std::deque<RowId> &victims = preventiveVictims[idx];
        if (model.openRow(idx) == kNoRow) {
            // Pop the victim only once the refresh ACT actually issued:
            // tryRefreshAct re-checks the rank hold, bank state, and
            // ACT timing itself, and any of those can decline (e.g. a
            // hold placed between our earliestAct probe and the issue).
            // Popping first would silently drop the victim — a missed
            // preventive refresh, invisible until a bit flips.
            if (!tryRefreshAct(idx, victims.front(), now))
                return false;
            victims.pop_front();
            if (victims.empty())
                preventivePending.assign(idx, false);
        } else if (!bankHasOpenRowHit(idx) && model.earliestPre(idx) <= now) {
            // Close the bank so the preventive refresh can proceed; row
            // hits in flight drain first.
            tryPre(idx, now);
        } else {
            return false;
        }
        preventiveCursor = idx + 1;
        return true;
    });
}

void
MemoryController::demandAct(std::size_t idx, RowId row, Cycle now)
{
    hira_assert(!rankHeld(model.rankOf(idx)));
    count(mRowMisses);

    // Case-1 hook (Fig. 8): when a HiRA op fits, the refresh scheme may
    // hide a refresh under this activation; a picked refresh is already
    // committed, so the op issues.
    if (model.earliestHira(idx) <= now && hiraSlotsFree(now)) {
        RowId hidden = refreshScheme->takeHiddenRefresh(idx, row, now);
        if (hidden != kNoRow) {
            Cycle second_at = issueHira(idx, hidden, row, now);
            onRowActivation(idx, hidden, now);
            onRowActivation(idx, row, second_at);
            return;
        }
    }

    model.issueAct(idx, row, now);
    record(CommandType::ACT, now, idx, row);
    markIssued();
    syncBankBits(idx);
    onRowActivation(idx, row, now);
}

bool
MemoryController::issueRowCommand(bool is_read, Cycle now)
{
    // Oldest-first, one attempt per bank. Only a bank's oldest queued
    // request (its queue's front) gets a row command, and whether it
    // issues depends on the bank alone: a closed bank takes its ACT, an
    // open one whose row no queued request still hits takes the
    // conflict PRE (a bank whose row is hit waits for the column
    // commands). Of the banks that would issue, serve the one whose
    // oldest request arrived first.
    const std::vector<BankQueue> &queues = is_read ? readQ : writeQ;
    const Queued *oldest = nullptr;
    std::size_t oldest_idx = 0;
    (is_read ? readQueued : writeQueued).anyOf([&](std::size_t idx) {
        const Queued &front = queues[idx].front();
        if ((oldest != nullptr && oldest->seq < front.seq) ||
            bankBlocked(idx)) {
            return false;
        }
        bool ready =
            model.openRow(idx) == kNoRow
                ? !rankHeld(model.rankOf(idx)) && model.earliestAct(idx) <= now
                : !bankHasOpenRowHit(idx) && model.earliestPre(idx) <= now;
        if (ready) {
            oldest = &front;
            oldest_idx = idx;
        }
        return false;
    });
    if (oldest == nullptr)
        return false;
    if (model.openRow(oldest_idx) == kNoRow) {
        demandAct(oldest_idx, oldest->req.da.row, now);
        return true;
    }
    count(mRowConflicts);
    return tryPre(oldest_idx, now);
}

bool
MemoryController::nextWriteMode() const
{
    // Enter write drain at drainHigh, or opportunistically when there
    // is no read work at all; leave it at drainLow once reads wait, or
    // when no write is left.
    if (nWrites == 0)
        return false;
    if (!writeMode)
        return nWrites >= static_cast<std::size_t>(cfg.drainHigh) ||
               nReads == 0;
    return nWrites > static_cast<std::size_t>(cfg.drainLow) || nReads == 0;
}

void
MemoryController::scheduleDemand(Cycle now)
{
    if (!busFree(now))
        return;

    writeMode = nextWriteMode();

    // FR-FCFS: ready column accesses first, then oldest-first row
    // commands. An empty queue has no bit set, so both return at once.
    if (issueColumnIfReady(!writeMode, now))
        return;
    issueRowCommand(!writeMode, now);
}

void
MemoryController::autoPreTick(Cycle now)
{
    if (!busFree(now))
        return;
    // Ascending flat index is the (rank, bank) order of a full sweep.
    refreshOpen.anyOf([&](std::size_t idx) {
        if (model.openRow(idx) == kNoRow || model.earliestPre(idx) > now)
            return false;
        tryPre(idx, now);
        return true;
    });
}

Cycle
MemoryController::recomputeWake() const
{
    nextWake = computeNextEvent(lastTick);
    nextWakeValid = true;
    count(mWakeRecomputes);
    return nextWake;
}

Cycle
MemoryController::computeNextEvent(Cycle now) const
{
    // The one state change the horizon scan below cannot see is the
    // write-drain hysteresis flip: writeMode changes how preventiveTick
    // weighs queued row hits and which queue schedules, and the dense
    // loop re-evaluates the flip on every busFree tick. The flip is a
    // pure function of the queue depths, so replaying the hysteresis
    // block on the current depths tells exactly whether the next dense
    // tick would change writeMode; if so, poll it. Depth changes
    // between recomputes cannot be missed: they happen only on issues
    // (each followed by this recompute) and enqueues (which lower the
    // wake to arrival+1). Everything else an issue touches —
    // completions pushed, preventive victims sampled, bank refreshOpen
    // transitions, scheme bookkeeping, data-bus adjusted horizons —
    // re-enters through the scan, which runs on post-issue state.
    if (nextWriteMode() != writeMode)
        return now + 1;

    // Horizons can never push the wake below the next cycle, so the
    // scan bails as soon as the running minimum reaches that floor.
    const Cycle floor = now + 1;
    Cycle wake = kNeverCycle;
    auto consider = [&wake, floor](Cycle c) {
        if (c < wake)
            wake = c;
        return wake <= floor;
    };

    // One pass over the banks that can have an event: those with a
    // request of the active class queued, a pending preventive victim
    // or an open refresh row (the union of their bit words), reading
    // only the bits derived from the bank's queues, no queue walk at
    // all. Only the active queue can schedule before the next
    // mode flip, and flips always land on ticks the wake list covers
    // (the hysteresis check above plus enqueue's wake lowering), so
    // the inactive class contributes no horizon. The conflict-PRE and
    // preventive-close entries replay issueRowCommand /
    // preventiveTick's row-hit gate (bankHasOpenRowHit): a PRE dense
    // defers while the open row has queued hits is not considered,
    // because the hit bits only change at covered ticks (hit issues,
    // hit arrivals through enqueue, row transitions through commands),
    // after which this recompute runs again.
    const BankBits &queued = writeMode ? writeQueued : readQueued;
    const BankBits &hit = writeMode ? writeHit : readHit;
    bool at_floor = BankBits::anyOfUnion(
        queued, preventivePending, refreshOpen, [&](std::size_t idx) {
            if (refreshOpen.test(idx)) {
                // Demand and preventive work is withheld; the bank's
                // only event is the auto-PRE of the refresh row.
                return model.openRow(idx) != kNoRow &&
                       consider(model.earliestPre(idx));
            }
            if (model.openRow(idx) == kNoRow) {
                // Everything queued wants an ACT (demand row or
                // preventive victim). Held ranks: the holding scheme's
                // horizon polls densely while it drains the rank toward
                // a REF, so ACT entries drop out.
                return !rankHeld(model.rankOf(idx)) &&
                       consider(model.earliestAct(idx));
            }
            if (hit.test(idx) &&
                consider(writeMode ? model.earliestWr(idx)
                                   : model.earliestRd(idx))) {
                return true;
            }
            // Without an honoured hit the active class has none either,
            // so any queued request of it wants the conflict PRE.
            return (queued.test(idx) || preventivePending.test(idx)) &&
                   !bankHasOpenRowHit(idx) &&
                   consider(model.earliestPre(idx));
        });
    if (at_floor)
        return floor;

    // Completions must reach the LLC at exactly their arrival cycle.
    for (const Completion &c : completions_) {
        if (consider(c.at))
            return floor;
    }

    if (consider(refreshScheme->nextEventCycle(now)))
        return floor;

    if (wake == kNeverCycle)
        return kNeverCycle;
    return std::max(wake, floor);
}

bool
MemoryController::issueColumnIfReady(bool is_read, Cycle now)
{
    // The oldest ready row hit: each bank with a queued hit whose column
    // command may issue now offers its oldest hit, and the least seq of
    // those is served.
    std::vector<BankQueue> &queues = is_read ? readQ : writeQ;
    std::size_t bank_idx = 0;
    BankQueue::iterator oldest;
    bool any = false;
    (is_read ? readHit : writeHit).anyOf([&](std::size_t idx) {
        BankQueue &q = queues[idx];
        if ((any && oldest->seq < q.front().seq) || refreshOpen.test(idx) ||
            (is_read ? model.earliestRd(idx) : model.earliestWr(idx)) > now) {
            return false;
        }
        const RowId open = model.openRow(idx);
        auto it = std::find_if(q.begin(), q.end(), [open](const Queued &e) {
            return e.req.da.row == open;
        });
        hira_assert(it != q.end());
        if (!any || it->seq < oldest->seq) {
            bank_idx = idx;
            oldest = it;
            any = true;
        }
        return false;
    });
    if (!any)
        return false;
    const Request &req = oldest->req;
    if (is_read) {
        Cycle done = model.issueRd(bank_idx, now);
        record(CommandType::RD, now, bank_idx, req.da.row);
        completions_.push_back({req.tag, req.coreId, done});
        stats_.readLatencySum += done - req.arrival;
        ++stats_.readsServed;
        --nReads;
    } else {
        model.issueWr(bank_idx, now);
        record(CommandType::WR, now, bank_idx, req.da.row);
        ++stats_.writesServed;
        --nWrites;
    }
    queues[bank_idx].erase(oldest);
    syncBankBits(bank_idx);
    markIssued();
    count(mRowHits);
    return true;
}

} // namespace hira
