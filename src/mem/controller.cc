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
    bankAux.resize(static_cast<std::size_t>(cfg.geom.ranksPerChannel) *
                   static_cast<std::size_t>(cfg.geom.banksPerRank()));
    rankHold.assign(static_cast<std::size_t>(cfg.geom.ranksPerChannel),
                    false);
    nRead.assign(bankAux.size(), 0);
    nWrite.assign(bankAux.size(), 0);
    nReadHit.assign(bankAux.size(), 0);
    nWriteHit.assign(bankAux.size(), 0);
    bankSeenScratch.assign(bankAux.size(), 0);
    recorder.setEnabled(cfg.recordTrace);
    refreshScheme->attach(this);

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
    mBankReads.resize(bankAux.size(), nullptr);
    mBankWrites.resize(bankAux.size(), nullptr);
    if (ms.registry() != nullptr) {
        for (std::size_t i = 0; i < bankAux.size(); ++i) {
            MetricScope bank = ms.sub(strprintf("bank%zu", i));
            mBankReads[i] = bank.counter("reads");
            mBankWrites[i] = bank.counter("writes");
        }
    }
    refreshScheme->attachMetrics(ms.sub("scheme"));
}

std::size_t
MemoryController::bankIndex(int rank, BankId bank) const
{
    return static_cast<std::size_t>(rank) *
               static_cast<std::size_t>(cfg.geom.banksPerRank()) +
           bank;
}

MemoryController::BankAux &
MemoryController::aux(int rank, BankId bank)
{
    return bankAux[bankIndex(rank, bank)];
}

const MemoryController::BankAux &
MemoryController::aux(int rank, BankId bank) const
{
    return bankAux[bankIndex(rank, bank)];
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
MemoryController::bankBlocked(int rank, BankId bank) const
{
    const BankAux &a = aux(rank, bank);
    return a.refreshOpen || !a.preventive.empty();
}

std::size_t
MemoryController::pendingPreventive(int rank, BankId bank) const
{
    return aux(rank, bank).preventive.size();
}

bool
MemoryController::readQueueFull() const
{
    return readQ.size() >=
           static_cast<std::size_t>(cfg.readQueueCap);
}

bool
MemoryController::writeQueueFull() const
{
    return writeQ.size() >=
           static_cast<std::size_t>(cfg.writeQueueCap);
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
        if (wakeListener)
            wakeListener(seen);
        count(mWakeLowers);
    };
    if (req.type == MemType::Read) {
        // Forward from a queued write to the same line. The forward
        // serves the read (fixed latency, data from the write queue),
        // so it counts toward readsServed / readLatencySum like any
        // other completed read; `forwards` stays as the sub-count.
        for (const Request &w : writeQ) {
            if (w.addr == req.addr) {
                completions_.push_back(
                    {req.tag, req.coreId, req.arrival + 4});
                ++stats_.forwards;
                ++stats_.readsServed;
                stats_.readLatencySum += 4;
                lowerWake();
                return true;
            }
        }
        if (readQueueFull()) {
            ++stats_.rejectedRequests;
            return false;
        }
        readQ.push_back(req);
        std::size_t idx = bankIndex(req.da.rank, req.da.bank);
        count(mBankReads[idx]);
        ++nRead[idx];
        if (model.openRow(req.da.rank, req.da.bank) == req.da.row)
            ++nReadHit[idx];
        lowerWake();
        return true;
    }
    if (writeQueueFull()) {
        ++stats_.rejectedRequests;
        return false;
    }
    writeQ.push_back(req);
    std::size_t idx = bankIndex(req.da.rank, req.da.bank);
    count(mBankWrites[idx]);
    ++nWrite[idx];
    if (model.openRow(req.da.rank, req.da.bank) == req.da.row)
        ++nWriteHit[idx];
    lowerWake();
    return true;
}

void
MemoryController::recountHits(int rank, BankId bank)
{
    std::size_t idx = bankIndex(rank, bank);
    RowId open = model.openRow(rank, bank);
    std::uint16_t nr = 0, nw = 0;
    if (open != kNoRow) {
        for (const Request &r : readQ) {
            if (r.da.rank == rank && r.da.bank == bank &&
                r.da.row == open) {
                ++nr;
            }
        }
        for (const Request &r : writeQ) {
            if (r.da.rank == rank && r.da.bank == bank &&
                r.da.row == open) {
                ++nw;
            }
        }
    }
    nReadHit[idx] = nr;
    nWriteHit[idx] = nw;
}

void
MemoryController::record(CommandType type, Cycle cycle, int rank,
                         BankId bank, RowId row, HiraRole role)
{
    if (!recorder.isEnabled())
        return;
    Command c;
    c.type = type;
    c.cycle = cycle;
    c.channel = channel;
    c.rank = rank;
    c.bank = bank;
    c.row = row;
    c.hiraRole = role;
    recorder.record(c);
}

void
MemoryController::markIssued(Cycle now)
{
    hira_assert(!issuedThisCycle);
    (void)now;
    issuedThisCycle = true;
}

bool
MemoryController::slotReservedAt(Cycle c) const
{
    return std::find(reservedSlots.begin(), reservedSlots.end(), c) !=
           reservedSlots.end();
}

void
MemoryController::reserveHiraSlots(Cycle now)
{
    reservedSlots.push_back(now + model.cycles().c1);
    reservedSlots.push_back(now + model.cycles().hiraSpan());
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
    for (BankId b = 0; b < static_cast<BankId>(cfg.geom.banksPerRank());
         ++b) {
        if (model.openRow(rank, b) != kNoRow)
            return false;
    }
    if (model.earliestRef(rank) > now)
        return false;
    model.issueRef(rank, now);
    record(CommandType::REF, now, rank, 0, 0);
    markIssued(now);
    ++stats_.refs;
    return true;
}

bool
MemoryController::tryCloseOneBank(int rank, Cycle now)
{
    if (!busFree(now))
        return false;
    for (BankId b = 0; b < static_cast<BankId>(cfg.geom.banksPerRank());
         ++b) {
        if (model.openRow(rank, b) != kNoRow &&
            model.earliestPre(rank, b) <= now) {
            return tryPre(rank, b, now);
        }
    }
    return false;
}

bool
MemoryController::tryPre(int rank, BankId bank, Cycle now)
{
    if (!busFree(now) || model.openRow(rank, bank) == kNoRow ||
        model.earliestPre(rank, bank) > now) {
        return false;
    }
    model.issuePre(rank, bank, now);
    record(CommandType::PRE, now, rank, bank, 0);
    markIssued(now);
    ++stats_.pres;
    aux(rank, bank).refreshOpen = false;
    // Row closed: nothing hits it any more (recountHits shortcut).
    std::size_t idx = bankIndex(rank, bank);
    nReadHit[idx] = 0;
    nWriteHit[idx] = 0;
    return true;
}

bool
MemoryController::tryRefreshAct(int rank, BankId bank, RowId row,
                                Cycle now)
{
    if (!busFree(now) || rankHeld(rank) ||
        model.openRow(rank, bank) != kNoRow ||
        model.earliestAct(rank, bank) > now) {
        return false;
    }
    model.issueAct(rank, bank, row, now);
    record(CommandType::ACT, now, rank, bank, row);
    markIssued(now);
    aux(rank, bank).refreshOpen = true;
    recountHits(rank, bank); // a refresh row can match queued requests
    onRowActivation(rank, bank, row, now);
    return true;
}

Cycle
MemoryController::tryIssueHira(int rank, BankId bank, RowId first,
                               RowId second, Cycle now)
{
    const TimingCycles &tcy = model.cycles();
    if (slotReservedAt(now + tcy.c1) || slotReservedAt(now + tcy.hiraSpan()))
        return kNeverCycle;
    Cycle second_at = model.issueHira(rank, bank, first, second, now);
    record(CommandType::ACT, now, rank, bank, first, HiraRole::FirstAct);
    record(CommandType::PRE, now + tcy.c1, rank, bank, 0,
           HiraRole::CutPre);
    record(CommandType::ACT, second_at, rank, bank, second,
           HiraRole::SecondAct);
    reserveHiraSlots(now);
    markIssued(now);
    ++stats_.hiraOps;
    recountHits(rank, bank); // bank now open with `second`
    return second_at;
}

bool
MemoryController::tryHiraRefreshPair(int rank, BankId bank, RowId first,
                                     RowId second, Cycle now)
{
    if (!busFree(now) || rankHeld(rank) ||
        model.openRow(rank, bank) != kNoRow ||
        model.earliestHira(rank, bank) > now) {
        return false;
    }
    Cycle second_at = tryIssueHira(rank, bank, first, second, now);
    if (second_at == kNeverCycle)
        return false;
    aux(rank, bank).refreshOpen = true; // auto-PRE after the second tRAS
    onRowActivation(rank, bank, first, now);
    onRowActivation(rank, bank, second, second_at);
    return true;
}

void
MemoryController::onRowActivation(int rank, BankId bank, RowId row,
                                  Cycle now)
{
    ++stats_.acts;
    refreshScheme->onActivate(rank, bank, row, now);
    if (!paraSampler.enabled())
        return;
    RowId victim = paraSampler.sample(row, cfg.geom.rowsPerBank);
    if (victim == kNoRow)
        return;
    ++paraSampler.generated;
    if (cfg.paraImmediate)
        aux(rank, bank).preventive.push_back(victim);
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
    observe(mReadQDepth, static_cast<double>(readQ.size()));
    observe(mWriteQDepth, static_cast<double>(writeQ.size()));
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
    int nbanks = cfg.geom.ranksPerChannel * cfg.geom.banksPerRank();
    for (int i = 0; i < nbanks; ++i) {
        int idx = (preventiveCursor + i) % nbanks;
        int rank = idx / cfg.geom.banksPerRank();
        BankId bank = static_cast<BankId>(idx % cfg.geom.banksPerRank());
        BankAux &a = aux(rank, bank);
        if (a.preventive.empty() || a.refreshOpen)
            continue;
        if (model.openRow(rank, bank) == kNoRow) {
            // Pop the victim only once the refresh ACT actually issued:
            // tryRefreshAct re-checks the rank hold, bank state, and
            // ACT timing itself, and any of those can decline (e.g. a
            // hold placed between our earliestAct probe and the issue).
            // Popping first would silently drop the victim — a missed
            // preventive refresh, invisible until a bit flips.
            if (tryRefreshAct(rank, bank, a.preventive.front(), now)) {
                a.preventive.pop_front();
                preventiveCursor = idx + 1;
                return;
            }
        } else if (!bankHasOpenRowHit(bankIndex(rank, bank)) &&
                   model.earliestPre(rank, bank) <= now) {
            // Close the bank so the preventive refresh can proceed; row
            // hits in flight drain first.
            tryPre(rank, bank, now);
            preventiveCursor = idx + 1;
            return;
        }
    }
}

bool
MemoryController::tryDemandAct(const Request &req, Cycle now)
{
    int rank = req.da.rank;
    BankId bank = req.da.bank;
    if (rankHeld(rank) || model.earliestAct(rank, bank) > now)
        return false;

    // Case-1 hook (Fig. 8): give the refresh scheme the chance to hide a
    // refresh under this activation with a HiRA operation.
    RowId hidden =
        refreshScheme->pickHiddenRefresh(rank, bank, req.da.row, now);
    if (hidden != kNoRow && model.earliestHira(rank, bank) <= now) {
        Cycle second_at = tryIssueHira(rank, bank, hidden, req.da.row, now);
        if (second_at != kNeverCycle) {
            count(mRowMisses); // the demand ACT rode a closed bank
            refreshScheme->onHiraIssued(rank, bank, hidden, now);
            onRowActivation(rank, bank, hidden, now);
            onRowActivation(rank, bank, req.da.row, second_at);
            return true;
        }
    }

    model.issueAct(rank, bank, req.da.row, now);
    record(CommandType::ACT, now, rank, bank, req.da.row);
    markIssued(now);
    count(mRowMisses);
    recountHits(rank, bank);
    onRowActivation(rank, bank, req.da.row, now);
    return true;
}

bool
MemoryController::issueRowCommand(std::deque<Request> &queue, Cycle now)
{
    // Oldest-first, one attempt per bank.
    std::fill(bankSeenScratch.begin(), bankSeenScratch.end(), 0);
    for (const Request &req : queue) {
        int rank = req.da.rank;
        BankId bank = req.da.bank;
        std::size_t idx = bankIndex(rank, bank);
        if (bankSeenScratch[idx] != 0)
            continue;
        bankSeenScratch[idx] = 1;
        if (bankBlocked(rank, bank))
            continue;
        RowId open = model.openRow(rank, bank);
        if (open == req.da.row)
            continue; // row hit waiting on CAS timing
        if (open == kNoRow) {
            if (tryDemandAct(req, now))
                return true;
            continue;
        }
        // Conflict: close the row once its queued hits have drained.
        if (bankHasOpenRowHit(idx))
            continue;
        if (model.earliestPre(rank, bank) <= now) {
            count(mRowConflicts);
            return tryPre(rank, bank, now);
        }
    }
    return false;
}

bool
MemoryController::nextWriteMode() const
{
    // Enter write drain at drainHigh, or opportunistically when there
    // is no read work at all; leave it at drainLow once reads wait, or
    // when no write is left.
    if (writeQ.empty())
        return false;
    if (!writeMode)
        return writeQ.size() >= static_cast<std::size_t>(cfg.drainHigh) ||
               readQ.empty();
    return writeQ.size() > static_cast<std::size_t>(cfg.drainLow) ||
           readQ.empty();
}

void
MemoryController::scheduleDemand(Cycle now)
{
    if (!busFree(now))
        return;

    writeMode = nextWriteMode();

    std::deque<Request> &active = writeMode ? writeQ : readQ;
    if (active.empty())
        return;

    // FR-FCFS: ready column accesses first, then oldest-first row
    // commands.
    if (issueColumnIfReady(active, !writeMode, now))
        return;
    issueRowCommand(active, now);
}

void
MemoryController::autoPreTick(Cycle now)
{
    if (!busFree(now))
        return;
    for (int rank = 0; rank < cfg.geom.ranksPerChannel; ++rank) {
        for (BankId b = 0;
             b < static_cast<BankId>(cfg.geom.banksPerRank()); ++b) {
            BankAux &a = aux(rank, b);
            if (a.refreshOpen && model.openRow(rank, b) != kNoRow &&
                model.earliestPre(rank, b) <= now) {
                tryPre(rank, b, now);
                return;
            }
        }
    }
}

Cycle
MemoryController::nextEvent() const
{
    if (!nextWakeValid) {
        nextWake = computeNextEvent(lastTick);
        nextWakeValid = true;
        count(mWakeRecomputes);
    }
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

    // One sweep over the per-bank request index (nRead / nWrite /
    // n*Hit), no queue walk at all. Only the active queue can schedule
    // before the next mode flip, and flips always land on ticks the
    // wake list covers (the hysteresis check above plus enqueue's wake
    // lowering), so the inactive class contributes no horizon. The
    // conflict-PRE and preventive-close entries replay issueRowCommand
    // / preventiveTick's row-hit gate (bankHasOpenRowHit): a PRE dense
    // defers while the open row has queued hits is not considered,
    // because the hit counts only change at covered ticks (hit issues,
    // hit arrivals through enqueue, row transitions through commands),
    // after which this recompute runs again.
    const int bpr = cfg.geom.banksPerRank();
    for (int rank = 0; rank < cfg.geom.ranksPerChannel; ++rank) {
        // Held ranks: the holding scheme's horizon polls densely while
        // it drains the rank toward a REF, so ACT entries drop out.
        const bool held = rankHold[static_cast<std::size_t>(rank)];
        for (BankId b = 0; b < static_cast<BankId>(bpr); ++b) {
            std::size_t idx = bankIndex(rank, b);
            const BankAux &a = bankAux[idx];
            if (a.refreshOpen) {
                // Demand and preventive work is withheld; the bank's
                // only event is the auto-PRE of the refresh row.
                if (model.openRow(rank, b) != kNoRow &&
                    consider(model.earliestPre(rank, b))) {
                    return floor;
                }
                continue;
            }
            std::uint16_t nq = writeMode ? nWrite[idx] : nRead[idx];
            std::uint16_t nh = writeMode ? nWriteHit[idx] : nReadHit[idx];
            bool preventivePending = !a.preventive.empty();
            if (nq == 0 && !preventivePending)
                continue;
            if (model.openRow(rank, b) == kNoRow) {
                // Everything queued wants an ACT (demand row or
                // preventive victim).
                if (!held && consider(model.earliestAct(rank, b)))
                    return floor;
                continue;
            }
            if (nh != 0 &&
                consider(writeMode ? model.earliestWr(rank, b)
                                   : model.earliestRd(rank, b))) {
                return floor;
            }
            if ((nq > nh || preventivePending) &&
                !bankHasOpenRowHit(idx) &&
                consider(model.earliestPre(rank, b))) {
                return floor;
            }
        }
    }

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
MemoryController::issueColumnIfReady(std::deque<Request> &queue,
                                     bool is_read, Cycle now)
{
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Request &req = queue[i];
        int rank = req.da.rank;
        BankId bank = req.da.bank;
        if (aux(rank, bank).refreshOpen)
            continue;
        if (model.openRow(rank, bank) != req.da.row)
            continue;
        if (is_read) {
            if (model.earliestRd(rank, bank) > now)
                continue;
            Cycle done = model.issueRd(rank, bank, now);
            record(CommandType::RD, now, rank, bank, req.da.row);
            completions_.push_back({req.tag, req.coreId, done});
            stats_.readLatencySum += done - req.arrival;
            ++stats_.readsServed;
        } else {
            if (model.earliestWr(rank, bank) > now)
                continue;
            model.issueWr(rank, bank, now);
            record(CommandType::WR, now, rank, bank, req.da.row);
            ++stats_.writesServed;
        }
        markIssued(now);
        count(mRowHits);
        std::size_t idx = bankIndex(rank, bank);
        if (is_read) {
            --nRead[idx];
            --nReadHit[idx]; // the issued request hit the open row
        } else {
            --nWrite[idx];
            --nWriteHit[idx];
        }
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
    }
    return false;
}

} // namespace hira
