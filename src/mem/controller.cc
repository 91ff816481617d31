#include "mem/controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

namespace {

/** Oldest-hit arrival number of a bank without a hit. */
constexpr std::uint64_t kNoSeq = ~std::uint64_t(0);

} // namespace

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
    preventiveVictims.resize(nbanks);
    readQ.resize(nbanks);
    writeQ.resize(nbanks);
    readHitSeq.assign(nbanks, kNoSeq);
    writeHitSeq.assign(nbanks, kNoSeq);
    for (BankBits *bits : {&heldBanks, &refreshOpen, &preventivePending,
                           &readQueued, &writeQueued, &readHit, &writeHit}) {
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
    auto oldest_hit = [open](const BankQueue &q) {
        auto it = std::find_if(q.begin(), q.end(), [open](const Queued &e) {
            return e.req.da.row == open;
        });
        return it == q.end() ? kNoSeq : it->seq;
    };
    readQueued.assign(idx, !readQ[idx].empty());
    writeQueued.assign(idx, !writeQ[idx].empty());
    readHitSeq[idx] = oldest_hit(readQ[idx]);
    writeHitSeq[idx] = oldest_hit(writeQ[idx]);
    readHit.assign(idx, readHitSeq[idx] != kNoSeq);
    writeHit.assign(idx, writeHitSeq[idx] != kNoSeq);
}

inline std::uint64_t
MemoryController::honouredHitWord(std::size_t w) const
{
    return readHit.word(w) | (writeMode ? writeHit.word(w) : 0);
}

inline std::uint64_t
MemoryController::columnReadyWord(bool is_read, Cycle now,
                                  std::size_t w) const
{
    // Separate calls, so each leaves the other column kind at a
    // constant 0.
    const std::uint64_t hit =
        (is_read ? readHit : writeHit).word(w) & ~refreshOpen.word(w);
    return is_read ? model.readyMask(now, w, {0, 0, hit, 0})
                   : model.readyMask(now, w, {0, 0, 0, hit});
}

inline std::uint64_t
MemoryController::rowReadyWord(bool is_read, Cycle now, std::size_t w) const
{
    const std::uint64_t open = model.openBanks().word(w);
    const std::uint64_t queued =
        (is_read ? readQueued : writeQueued).word(w) &
        ~(refreshOpen.word(w) | preventivePending.word(w));
    CommandWords cand;
    cand.act = queued & ~open & ~heldBanks.word(w);
    cand.pre = queued & open & ~honouredHitWord(w);
    return model.readyMask(now, w, cand);
}

inline std::uint64_t
MemoryController::autoPreWord(Cycle now, std::size_t w) const
{
    CommandWords cand;
    cand.pre = refreshOpen.word(w) & model.openBanks().word(w);
    return model.readyMask(now, w, cand);
}

inline CommandWords
MemoryController::wakeWords(std::size_t w) const
{
    const std::uint64_t open = model.openBanks().word(w);
    const std::uint64_t refresh = refreshOpen.word(w);
    const std::uint64_t work =
        ((writeMode ? writeQueued : readQueued).word(w) |
         preventivePending.word(w)) &
        ~refresh;
    CommandWords cand;
    cand.pre = (refresh & open) | (work & open & ~honouredHitWord(w));
    cand.act = work & ~open & ~heldBanks.word(w);
    (writeMode ? cand.wr : cand.rd) =
        (writeMode ? writeHit : readHit).word(w) & ~refresh;
    return cand;
}

std::string
MemoryController::countIndexAudit() const
{
    std::size_t reads = 0, writes = 0;
    for (std::size_t i = 0; i < readQ.size(); ++i) {
        // Oldest hit arrival number per class: [0] writes, [1] reads.
        std::uint64_t hit[2] = {kNoSeq, kNoSeq};
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
                if (model.openRow(i) == r.da.row && hit[is_read] == kNoSeq)
                    hit[is_read] = q[k].seq;
            }
        }
        reads += readQ[i].size();
        writes += writeQ[i].size();
        if (readQueued.test(i) != !readQ[i].empty() ||
            writeQueued.test(i) != !writeQ[i].empty() ||
            readHit.test(i) != (hit[1] != kNoSeq) ||
            writeHit.test(i) != (hit[0] != kNoSeq)) {
            return strprintf("bank %zu: bits r/w/rhit/whit %d/%d/%d/%d, "
                             "queues %zu/%zu/%d/%d",
                             i, readQueued.test(i), writeQueued.test(i),
                             readHit.test(i), writeHit.test(i),
                             readQ[i].size(), writeQ[i].size(),
                             hit[1] != kNoSeq, hit[0] != kNoSeq);
        }
        if (readHitSeq[i] != hit[1] || writeHitSeq[i] != hit[0])
            return strprintf("bank %zu: oldest hit r/w %llu/%llu, queues "
                             "%llu/%llu", i,
                             static_cast<unsigned long long>(readHitSeq[i]),
                             static_cast<unsigned long long>(writeHitSeq[i]),
                             static_cast<unsigned long long>(hit[1]),
                             static_cast<unsigned long long>(hit[0]));
        if (model.openBanks().test(i) != (model.openRow(i) != kNoRow) ||
            heldBanks.test(i) != rankHeld(model.rankOf(i)))
            return strprintf("bank %zu: open or held bit disagrees with "
                             "its row or its rank", i);
    }
    if (reads != nReads || writes != nWrites)
        return strprintf("totals r/w %zu/%zu, queues %zu/%zu", nReads,
                         nWrites, reads, writes);
    return maskAudit(lastTick + 1);
}

std::string
MemoryController::maskAudit(Cycle now) const
{
    // Bit by bit from the scalar queries, over the banks with work (a
    // queued request, an open refresh row or a preventive victim; no
    // mask below holds any other bank): each kind's ready mask, the
    // three pick masks of both classes and the wake masks, with the
    // per-bank rules the masks encode.
    auto one_kind = [](int kind, std::uint64_t m) {
        CommandWords c;
        (kind == 0 ? c.act : kind == 1 ? c.pre : kind == 2 ? c.rd : c.wr) =
            m;
        return c;
    };
    const std::size_t nbanks = readQ.size();
    for (std::size_t w = 0; w < heldBanks.wordCount(); ++w) {
        // earliest[k][b]: earliestAct / Pre / Rd / Wr of bank 64w + b.
        Cycle earliest[4][64];
        std::uint64_t ready[4] = {}, row[2] = {}, column[2] = {},
                      auto_pre = 0;
        CommandWords wake;
        const std::uint64_t queued_of[2] = {writeQueued.word(w),
                                            readQueued.word(w)};
        const std::uint64_t hit_of[2] = {writeHit.word(w), readHit.word(w)};
        const std::uint64_t refresh_word = refreshOpen.word(w);
        const std::uint64_t pending_word = preventivePending.word(w);
        const std::uint64_t live =
            queued_of[0] | queued_of[1] | refresh_word | pending_word;
        for (std::uint64_t m = live; m != 0; m &= m - 1) {
            const int b = __builtin_ctzll(m);
            const std::size_t idx = w * 64 + static_cast<std::size_t>(b);
            if (idx >= nbanks)
                return strprintf("word %zu: bit %d past the last bank", w,
                                 b);
            const std::uint64_t bit = std::uint64_t(1) << b;
            earliest[0][b] = model.earliestAct(idx);
            earliest[1][b] = model.earliestPre(idx);
            earliest[2][b] = model.earliestRd(idx);
            earliest[3][b] = model.earliestWr(idx);
            bool at_now[4];
            for (int k = 0; k < 4; ++k) {
                at_now[k] = earliest[k][b] <= now;
                ready[k] |= at_now[k] ? bit : 0;
            }
            const bool open = model.openRow(idx) != kNoRow;
            const bool held = rankHeld(model.rankOf(idx));
            const bool honoured =
                (hit_of[1] & bit) != 0 || (writeMode && (hit_of[0] & bit));
            const bool refresh = (refresh_word & bit) != 0;
            const bool blocked = refresh || (pending_word & bit) != 0;
            for (int is_read = 0; is_read < 2; ++is_read) {
                const bool queued = (queued_of[is_read] & bit) != 0;
                const bool hit = (hit_of[is_read] & bit) != 0;
                const bool row_ready = !open ? !held && at_now[0]
                                             : !honoured && at_now[1];
                row[is_read] |= queued && !blocked && row_ready ? bit : 0;
                column[is_read] |=
                    hit && !refresh && at_now[is_read ? 2 : 3] ? bit : 0;
            }
            auto_pre |= refresh && open && at_now[1] ? bit : 0;
            // A refresh row waits for its auto-PRE; otherwise queued or
            // preventive work wants an ACT (closed, unheld) or, without
            // an honoured hit, a conflict PRE; an active-class hit wants
            // its column command.
            const bool work =
                (queued_of[!writeMode] & bit) != 0 || (pending_word & bit);
            if (refresh) {
                wake.pre |= open ? bit : 0;
            } else if (!open) {
                wake.act |= work && !held ? bit : 0;
            } else {
                wake.pre |= work && !honoured ? bit : 0;
                (writeMode ? wake.wr : wake.rd) |=
                    hit_of[!writeMode] & bit;
            }
        }
        for (int k = 0; k < 4; ++k) {
            if (model.readyMask(now, w, one_kind(k, live)) != ready[k])
                return strprintf("word %zu: ready mask of kind %d at %llu",
                                 w, k, static_cast<unsigned long long>(now));
        }
        for (int is_read = 0; is_read < 2; ++is_read) {
            if (rowReadyWord(is_read, now, w) != row[is_read] ||
                columnReadyWord(is_read, now, w) != column[is_read])
                return strprintf("word %zu: row or column pick mask of "
                                 "class %d", w, is_read);
        }
        if (autoPreWord(now, w) != auto_pre)
            return strprintf("word %zu: auto-PRE mask", w);
        const CommandWords ww = wakeWords(w);
        const std::uint64_t got[4] = {ww.act, ww.pre, ww.rd, ww.wr};
        const std::uint64_t want[4] = {wake.act, wake.pre, wake.rd, wake.wr};
        Cycle least = kNeverCycle;
        for (int k = 0; k < 4; ++k) {
            if (got[k] != want[k])
                return strprintf("word %zu: wake mask of kind %d", w, k);
            for (std::uint64_t m = want[k]; m != 0; m &= m - 1)
                least = std::min(least, earliest[k][__builtin_ctzll(m)]);
        }
        if (model.earliest(w, ww) != least)
            return strprintf("word %zu: earliest of the wake masks", w);
    }
    return "";
}

void
MemoryController::setRankHold(int rank, bool hold)
{
    const std::size_t first = model.bankIndex(rank, 0);
    const std::size_t end = first + cfg.geom.banksPerRank();
    for (std::size_t idx = first; idx < end; ++idx)
        heldBanks.assign(idx, hold);
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
    const std::uint64_t seq = nextSeq++;
    (is_read ? readQ : writeQ)[idx].push_back({seq, req});
    ++(is_read ? nReads : nWrites);
    count((is_read ? mBankReads : mBankWrites)[idx]);
    (is_read ? readQueued : writeQueued).assign(idx, true);
    if (model.openRow(idx) == req.da.row) {
        // The newest arrival is the bank's oldest hit only if it is the
        // first.
        std::uint64_t &oldest = (is_read ? readHitSeq : writeHitSeq)[idx];
        if (oldest == kNoSeq)
            oldest = seq;
        (is_read ? readHit : writeHit).assign(idx, true);
    }
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
    hira_assert(now == lastTick);
    return !issuedThisCycle && !slotReservedNow;
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
    readHitSeq[idx] = kNoSeq;
    writeHitSeq[idx] = kNoSeq;
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
    // Every reservation made during this tick is at now + c1 or later,
    // so the slot at now stays as it is for the whole tick.
    slotReservedNow = slotReservedAt(now);

    autoPreTick(now);
    if (busFree(now))
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
        } else if (!((honouredHitWord(idx / 64) >> (idx % 64)) & 1) &&
                   model.earliestPre(idx) <= now) {
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
    // issues depends on the bank alone (rowReadyWord): a closed bank
    // takes its ACT, an open one whose row no queued request still hits
    // takes the conflict PRE (a bank whose row is hit waits for the
    // column commands). Of the banks that would issue, serve the one
    // whose oldest request arrived first.
    const std::vector<BankQueue> &queues = is_read ? readQ : writeQ;
    const std::size_t idx = oldestBank(
        [&](std::size_t w) { return rowReadyWord(is_read, now, w); },
        [&](std::size_t i) { return queues[i].front().seq; });
    if (idx == kNoBank)
        return false;
    if (model.openRow(idx) == kNoRow) {
        demandAct(idx, queues[idx].front().req.da.row, now);
        return true;
    }
    count(mRowConflicts);
    return tryPre(idx, now);
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
    for (std::size_t w = 0; w < refreshOpen.wordCount(); ++w) {
        if (const std::uint64_t m = autoPreWord(now, w)) {
            tryPre(w * 64 + static_cast<std::size_t>(__builtin_ctzll(m)),
                   now);
            return;
        }
    }
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

    // The banks that can have an event, by the command each waits for
    // (wakeWords): a PRE for an open refresh row (demand and preventive
    // work is withheld until its auto-PRE) or for an open bank with
    // queued or preventive work but no honoured hit; an ACT for a
    // closed, unheld bank with such work; the active class's column
    // command for a bank with a queued hit. Each mask is reduced to its
    // least earliest-command cycle; no queue is walked. Only the active
    // queue can schedule before the next mode flip, and flips always
    // land on ticks the wake list covers (the hysteresis check above
    // plus enqueue's wake lowering), so the inactive class contributes
    // no horizon. The conflict-PRE mask replays issueRowCommand /
    // preventiveTick's row-hit gate (honouredHitWord): a PRE dense
    // defers while the open row has queued hits is not considered,
    // because the hit bits only change at covered ticks (hit issues,
    // hit arrivals through enqueue, row transitions through commands),
    // after which this recompute runs again. Held ranks: the holding
    // scheme's horizon polls densely while it drains the rank toward a
    // REF, so their ACTs drop out.
    for (std::size_t w = 0; w < refreshOpen.wordCount(); ++w) {
        const CommandWords m = wakeWords(w);
        if (consider(writeMode ? model.earliest(w, {m.act, m.pre, 0, m.wr})
                               : model.earliest(w, {m.act, m.pre, m.rd, 0})))
            return floor;
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
MemoryController::issueColumnIfReady(bool is_read, Cycle now)
{
    // The oldest ready row hit: each bank with a queued hit whose column
    // command may issue now offers its oldest hit, and the least seq of
    // those is served.
    std::vector<BankQueue> &queues = is_read ? readQ : writeQ;
    const std::vector<std::uint64_t> &hit_seq =
        is_read ? readHitSeq : writeHitSeq;
    const std::size_t bank_idx = oldestBank(
        [&](std::size_t w) { return columnReadyWord(is_read, now, w); },
        [&](std::size_t i) { return hit_seq[i]; });
    if (bank_idx == kNoBank)
        return false;
    // The queue is in arrival order, so its oldest hit is found by seq.
    BankQueue &q = queues[bank_idx];
    const std::uint64_t seq = hit_seq[bank_idx];
    const BankQueue::iterator oldest = std::lower_bound(
        q.begin(), q.end(), seq,
        [](const Queued &e, std::uint64_t s) { return e.seq < s; });
    hira_assert(oldest != q.end() && oldest->seq == seq);
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
    q.erase(oldest);
    syncBankBits(bank_idx);
    markIssued();
    count(mRowHits);
    return true;
}

} // namespace hira
