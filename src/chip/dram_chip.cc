#include "chip/dram_chip.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace hira {

const DataPattern kAllPatterns[4] = {
    DataPattern::Ones,
    DataPattern::Zeros,
    DataPattern::Checker,
    DataPattern::InvChecker,
};

namespace {

std::uint64_t
rowKey(BankId bank, RowId row)
{
    return (static_cast<std::uint64_t>(bank) << 32) | row;
}

} // namespace

DramChip::DramChip(const ChipConfig &config)
    : cfg(config), iso(config), var(config)
{
    hira_assert(cfg.rowsPerBank % cfg.subarraysPerBank == 0);
    banks.resize(cfg.banks);
}

DramChip::RowState &
DramChip::rowState(BankId bank, RowId row)
{
    return rows[rowKey(bank, row)];
}

const DramChip::RowState *
DramChip::rowStateIfAny(BankId bank, RowId row) const
{
    auto it = rows.find(rowKey(bank, row));
    return it == rows.end() ? nullptr : &it->second;
}

void
DramChip::disturbNeighbors(BankId bank, RowId row, double amount)
{
    // Physically adjacent rows receive the disturbance (blast radius 1;
    // the controller-visible to physical row mapping is modeled as the
    // identity).
    if (row > 0)
        rowState(bank, row - 1).damage += amount;
    if (row + 1 < cfg.rowsPerBank)
        rowState(bank, row + 1).damage += amount;
}

void
DramChip::restoreRow(BankId bank, RowId row, NanoSec t)
{
    RowState &rs = rowState(bank, row);
    double e = var.eta(bank, row);
    rs.damage *= (1.0 - e);
    rs.session += 1;
    rs.lastRestore = t;
}

void
DramChip::corruptRow(BankId bank, RowId row)
{
    rowState(bank, row).corrupted = true;
}

void
DramChip::settlePending(Bank &b, BankId bank, NanoSec t)
{
    for (const PendingRestore &p : b.pending) {
        if (p.done <= t) {
            restoreRow(bank, p.row, p.done);
        } else {
            ++stats_.interruptedRestores;
            corruptRow(bank, p.row);
        }
    }
    b.pending.clear();
}

void
DramChip::finalizePrecharge(Bank &b, BankId bank)
{
    // The PRE issued at b.preTime ran to term: the wordline of b.row went
    // down. If its charge restoration had not completed, the data is
    // lost; otherwise the restoration counts as a refresh.
    hira_assert(b.phase == Phase::Precharging);
    double elapsed = b.preTime - b.actTime;
    if (elapsed + 1e-9 >= var.restoreTime(b.row)) {
        restoreRow(bank, b.row, b.preTime);
    } else {
        ++stats_.interruptedRestores;
        corruptRow(bank, b.row);
    }
    settlePending(b, bank, b.preTime);
    b.phase = Phase::Precharged;
    b.row = kNoRow;
}

void
DramChip::act(BankId bank, RowId row, NanoSec t)
{
    hira_assert(bank < cfg.banks && row < cfg.rowsPerBank);
    Bank &b = banks[bank];
    hira_assert(t + 1e-9 >= b.lastEvent);
    b.lastEvent = t;
    latestTime = std::max(latestTime, t);
    ++stats_.acts;

    switch (b.phase) {
      case Phase::Precharged:
        b.phase = Phase::Active;
        b.row = row;
        b.actTime = t;
        disturbNeighbors(bank, row, 1.0);
        return;

      case Phase::Active:
        // ACT to an open bank: real chips ignore it (also the fate of
        // HiRA's second ACT on vendors that ignored the violating PRE).
        ++stats_.ignoredAct;
        return;

      case Phase::Precharging: {
        double t2 = t - b.preTime;
        if (t2 > kHiraInterruptNs) {
            // The precharge ran to term before this ACT: normal reopen.
            finalizePrecharge(b, bank);
            b.phase = Phase::Active;
            b.row = row;
            b.actTime = t;
            disturbNeighbors(bank, row, 1.0);
            // Activating before the bitlines finished equalizing makes
            // the sensing unreliable.
            if (t2 < kPrechargeDoneNs)
                corruptRow(bank, row);
            return;
        }

        // HiRA second ACT: the PRE is interrupted while RowA's wordline
        // is still up (Section 3, step 3).
        ++stats_.hiraAttempts;
        RowId row_a = b.row;
        double t1 = b.preTime - b.actTime;
        bool ok = true;

        if (!iso.rowsIsolated(row_a, row)) {
            // Shared bitlines / sense amplifiers: the second activation
            // fights RowA's ongoing restoration; both rows lose data.
            corruptRow(bank, row_a);
            corruptRow(bank, row);
            ++stats_.hiraNotIsolated;
            ok = false;
        }
        if (t1 + 1e-9 < var.saEnable(row_a) ||
            t1 - 1e-9 > var.ioConnect(row_a)) {
            // Condition 1 / hypothesis for large t1 (Section 4.2): the
            // sense amps never latched RowA, or its local row buffer
            // already reached the bank I/O.
            corruptRow(bank, row_a);
            ++stats_.hiraBadT1;
            ok = false;
        }
        if (t2 + 1e-9 < var.bLow(row) || t2 - 1e-9 > var.bHigh(row)) {
            // The second activation misses its own reliable window.
            corruptRow(bank, row);
            ++stats_.hiraBadT2;
            ok = false;
        }
        if (ok)
            ++stats_.hiraSuccess;

        // RowA's wordline stays up; its restoration finishes in the
        // shadow of RowB's tRAS unless the bank is closed too early
        // (checked when the closing PRE arrives).
        if (!rowState(bank, row_a).corrupted) {
            b.pending.push_back(
                {row_a, b.actTime + var.restoreTime(row_a)});
        }
        b.phase = Phase::Active;
        b.row = row;
        b.actTime = t;
        disturbNeighbors(bank, row, 1.0);
        return;
      }
    }
}

void
DramChip::pre(BankId bank, NanoSec t)
{
    hira_assert(bank < cfg.banks);
    Bank &b = banks[bank];
    hira_assert(t + 1e-9 >= b.lastEvent);
    b.lastEvent = t;
    latestTime = std::max(latestTime, t);
    ++stats_.pres;

    switch (b.phase) {
      case Phase::Precharged:
        return; // PRE to an idle bank is a no-op

      case Phase::Active: {
        double elapsed = t - b.actTime;
        if (!cfg.honorsHira && elapsed < kIgnoreRasBelowNs) {
            // Non-supporting vendors ignore a PRE that grossly violates
            // tRAS (Section 12): the bank silently stays active.
            ++stats_.ignoredPre;
            return;
        }
        b.phase = Phase::Precharging;
        b.preTime = t;
        return;
      }

      case Phase::Precharging:
        // Second PRE with no intervening ACT: the first already decided
        // the row's fate.
        finalizePrecharge(b, bank);
        return;
    }
}

NanoSec
DramChip::hammerPair(BankId bank, RowId aggr_a, RowId aggr_b,
                     std::uint64_t n, NanoSec t)
{
    Bank &bk = banks[bank];
    if (bk.phase == Phase::Precharging)
        finalizePrecharge(bk, bank); // settle a still-pending PRE
    hira_assert(bk.phase == Phase::Precharged);
    if (n == 0)
        return t;
    // Equivalent to n iterations of
    //   act(a); pre() after tRAS; act(b); pre() after tRAS;
    // with nominal timing: each aggressor activation disturbs its two
    // neighbors once and fully restores the aggressor itself.
    disturbNeighbors(bank, aggr_a, static_cast<double>(n));
    disturbNeighbors(bank, aggr_b, static_cast<double>(n));
    NanoSec end = t + static_cast<double>(2 * n) * kRcNs;
    latestTime = std::max(latestTime, end);
    // The aggressors themselves are restored on every iteration.
    for (RowId r : {aggr_a, aggr_b}) {
        RowState &rs = rowState(bank, r);
        rs.damage = 0.0;
        rs.session += n;
        rs.lastRestore = end;
    }
    stats_.acts += 2 * n;
    stats_.pres += 2 * n;
    return end;
}

void
DramChip::writeOpenRow(BankId bank, DataPattern p, NanoSec t)
{
    Bank &b = banks[bank];
    hira_assert(b.phase == Phase::Active);
    hira_assert(t + 1e-9 >= b.actTime + kRcdNs);
    b.lastEvent = t;
    RowState &rs = rowState(bank, b.row);
    rs.basePattern = static_cast<std::uint8_t>(p);
    rs.initialized = true;
    rs.corrupted = false;
    rs.damage = 0.0;
    rs.session += 1;
    rs.lastRestore = t;
}

bool
DramChip::hasFlips(BankId bank, RowId row, const RowState &rs,
                   NanoSec t) const
{
    if (!rs.initialized || rs.corrupted)
        return true;
    if (rs.damage >= var.nrhEffective(bank, row, rs.session))
        return true;
    double elapsed_ms = (t - rs.lastRestore) * 1e-6;
    if (elapsed_ms > var.retentionMs(bank, row))
        return true;
    return false;
}

bool
DramChip::openRowMatches(BankId bank, DataPattern expected, NanoSec t)
{
    Bank &b = banks[bank];
    hira_assert(b.phase == Phase::Active);
    hira_assert(t + 1e-9 >= b.actTime + kRcdNs);
    b.lastEvent = t;
    const RowState &rs = rowState(bank, b.row);
    if (rs.basePattern != static_cast<std::uint8_t>(expected))
        return false;
    return !hasFlips(bank, b.row, rs, t);
}

std::vector<std::uint8_t>
DramChip::readOpenRow(BankId bank, NanoSec t)
{
    Bank &b = banks[bank];
    hira_assert(b.phase == Phase::Active);
    b.lastEvent = t;
    RowState &rs = rowState(bank, b.row);
    std::vector<std::uint8_t> data(cfg.rowBytes, rs.basePattern);
    if (hasFlips(bank, b.row, rs, t)) {
        // Materialize a deterministic set of flipped bits: at least one,
        // more as the disturbance overshoots the threshold.
        double nrh = var.nrhEffective(bank, b.row, rs.session);
        double excess = nrh > 0.0 ? std::max(rs.damage / nrh - 1.0, 0.0)
                                  : 0.0;
        std::size_t nflips =
            1 + static_cast<std::size_t>(std::min(excess * 8.0, 63.0));
        if (rs.corrupted || !rs.initialized)
            nflips = 16 + (hashCombine(cfg.seed, rowKey(bank, b.row)) % 48);
        std::uint64_t h = hashCombine(cfg.seed, rowKey(bank, b.row));
        for (std::size_t i = 0; i < nflips; ++i) {
            h = splitmix64(h);
            std::size_t bit = h % (cfg.rowBytes * 8);
            data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
    }
    return data;
}

RowId
DramChip::openRow(BankId bank) const
{
    const Bank &b = banks[bank];
    return b.phase == Phase::Active ? b.row : kNoRow;
}

double
DramChip::damageOf(BankId bank, RowId row) const
{
    const RowState *rs = rowStateIfAny(bank, row);
    return rs == nullptr ? 0.0 : rs->damage;
}

} // namespace hira
