/**
 * @file
 * Cycle-level DDR4 memory controller for one channel.
 *
 * Models the Table 3 controller: 64-entry read and write queues,
 * FR-FCFS scheduling [143, 190] with the open-row policy, write-drain
 * watermarks, one command per channel cycle (the shared command bus all
 * ranks contend on, which drives the Fig. 14/16 rank-scaling behavior),
 * a pluggable refresh scheme (NoRefresh, BaselineRefresh, or a scheme
 * derived from it: HiRA-MC, RFM, PRAC, Graphene-TRR), and PARA in its
 * original immediate form (preventive refresh as soon as the activated
 * row's bank is free) or delegated to HiRA-MC's PreventiveRC.
 *
 * Each queue is kept per bank in arrival order, so FR-FCFS compares the
 * banks' oldest candidates by arrival number instead of walking one
 * queue; the 64-entry caps apply to the totals.
 *
 * Scheduling runs on bank masks (BankBits words): per-bank bits say
 * which banks have queued requests, queued row hits, open refresh rows,
 * preventive victims and held ranks, and ChannelTimingModel::readyMask
 * says which banks' ACT / PRE / RD / WR may issue now. Each pick ANDs
 * these into the banks that can issue and compares only those banks'
 * oldest arrival numbers; the wake bound reduces three such masks (the
 * banks waiting for a PRE, an ACT and a column command) with
 * ChannelTimingModel::earliest. No pick or wake walks the banks one by
 * one through per-bank branches.
 *
 * The HiRA operation is issued atomically: the controller reserves the
 * two future command-bus slots for the inner PRE and second ACT, applies
 * the timing effects through ChannelTimingModel::issueHira, and logs all
 * three commands with HiraRole tags so TimingChecker can audit traces.
 */

#ifndef HIRA_MEM_CONTROLLER_HH
#define HIRA_MEM_CONTROLLER_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "dram/timing_checker.hh"
#include "dram/timing_state.hh"
#include "dram/bank_bits.hh"
#include "mem/para.hh"
#include "mem/refresh.hh"
#include "mem/request.hh"

namespace hira {

/** Static configuration of one controller. */
struct ControllerConfig
{
    Geometry geom;
    TimingParams tp;
    int readQueueCap = 64;
    int writeQueueCap = 64;
    int drainHigh = 48;  //!< enter write-drain mode at this depth
    int drainLow = 16;   //!< leave write-drain mode at this depth
    ParaConfig para;
    /**
     * True: preventive refreshes execute immediately (original PARA).
     * False: sampled victims are discarded; System clears it for
     * HiRA-MC, whose PreventiveRC samples activations itself and queues
     * the victims with slack (SchemeSpec::validate rejects enabling
     * immediate PARA on HiRA-MC).
     */
    bool paraImmediate = true;
    bool recordTrace = false; //!< feed the TimingChecker trace recorder

    /**
     * Metrics scope for this controller instance (e.g. "ctrl0."); a
     * default-constructed scope disables all instrumentation. The
     * refresh scheme receives the "scheme." child scope. Metrics only
     * observe: scheduling decisions are identical with and without a
     * live scope (pinned by tests/sim/test_metrics_equivalence.cc).
     */
    MetricScope metrics;
};

/** Demand-side statistics. */
struct ControllerStats
{
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t readLatencySum = 0; //!< enqueue to data return, cycles
    std::uint64_t forwards = 0;       //!< reads served from the write queue
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t refs = 0;
    std::uint64_t hiraOps = 0;
    std::uint64_t rejectedRequests = 0; //!< enqueue failures (full queue)

    /**
     * The one list of the counters above, in declaration order, like
     * RefreshStats::forEachField (names pinned by test_system.cc). Its
     * consumers: operator+= (System::result), the ctrlN.<name> metric
     * mirrors and tests/result_expect.hh. A new counter is one line.
     */
    template <typename F>
    static void
    forEachField(F &&f)
    {
        f("reads_served", &ControllerStats::readsServed);
        f("writes_served", &ControllerStats::writesServed);
        f("read_latency_sum", &ControllerStats::readLatencySum);
        f("forwards", &ControllerStats::forwards);
        f("cmd.act", &ControllerStats::acts);
        f("cmd.pre", &ControllerStats::pres);
        f("cmd.ref", &ControllerStats::refs);
        f("cmd.hira", &ControllerStats::hiraOps);
        f("rejected_requests", &ControllerStats::rejectedRequests);
    }

    ControllerStats &
    operator+=(const ControllerStats &o)
    {
        forEachField([&](const char *, auto m) { this->*m += o.*m; });
        return *this;
    }
};

/** One channel's memory controller. */
class MemoryController
{
  public:
    MemoryController(int channel_id, const ControllerConfig &cfg,
                     std::unique_ptr<RefreshScheme> scheme);

    // ----- demand interface -------------------------------------------

    /** Enqueue a demand request; false if the queue is full. */
    bool enqueue(const Request &req);

    /** Advance one memory-bus cycle. */
    void tick(Cycle now);

    /**
     * Event-engine wake-up: a conservative lower bound on the next
     * cycle at which tick() could do anything observable or a queued
     * completion falls due. Between the last tick and this cycle,
     * tick() is provably a no-op, so the event engine
     * (src/sim/system.cc) skips it without diverging from per-cycle
     * polling. The bound is cached: tick() invalidates it, the next
     * call recomputes it from the least earliest-command cycle of three
     * bank masks (banks waiting for a PRE, an ACT or a column command),
     * pending completions, and the refresh scheme's own
     * nextEventCycle(), and enqueue() lowers a valid cache so newly
     * arriving work is polled at the same cycle the dense loop would
     * have seen it. The event engine keeps no copy: its skip decision
     * and its per-channel tick test both read this cache. HiRA bus-slot
     * reservations need no horizon of their own: a reservation only
     * exists after an issue, and an issue always forces a poll of the
     * following cycle, after which any still-gated horizon degrades to
     * dense polling. Never later than the true next event; possibly
     * earlier (a wasted poll, never a divergence).
     */
    Cycle nextEvent() const
    {
        return nextWakeValid ? nextWake : recomputeWake();
    }

    /**
     * Account @p n enqueue rejections in bulk. The event engine calls
     * this when it skips cycles during which the dense loop would have
     * re-offered (and re-rejected) the LLC's outbound head once per
     * cycle — the only per-cycle observable of those retries is this
     * counter, so bulk accrual keeps SystemResult bitwise identical.
     */
    void accrueRejected(std::uint64_t n) { stats_.rejectedRequests += n; }

    /** Completions accumulated since the last drain. */
    std::vector<Completion> &completions() { return completions_; }

    bool readQueueFull() const
    {
        return nReads >= static_cast<std::size_t>(cfg.readQueueCap);
    }
    bool writeQueueFull() const
    {
        return nWrites >= static_cast<std::size_t>(cfg.writeQueueCap);
    }
    std::size_t queuedReads() const { return nReads; }
    std::size_t queuedWrites() const { return nWrites; }

    // ----- primitives for refresh schemes ------------------------------
    //
    // A bank is named by its flat index within the channel
    // (timing().bankIndex()); only the rank-level REF work takes a rank.

    /** True if the command bus can carry a command this cycle. */
    bool busFree(Cycle now) const;

    /** Issue an all-bank REF to the rank (all banks must be closed). */
    bool tryRef(int rank, Cycle now);

    /** Precharge one open bank of the rank (REF preparation). */
    bool tryCloseOneBank(int rank, Cycle now);

    /** Precharge a specific bank. */
    bool tryPre(std::size_t bank, Cycle now);

    /**
     * Standalone per-row refresh: ACT @p row now, auto-PRE after tRAS.
     * The bank is withheld from demand scheduling until the PRE.
     */
    bool tryRefreshAct(std::size_t bank, RowId row, Cycle now);

    /**
     * Refresh-refresh HiRA (Section 5.1.3 case 2): one HiRA op
     * refreshing @p first and @p second, auto-PRE after the second's
     * tRAS.
     */
    bool tryHiraRefreshPair(std::size_t bank, RowId first, RowId second,
                            Cycle now);

    // ----- inspection ---------------------------------------------------

    const ChannelTimingModel &timing() const { return model; }
    const Geometry &geometry() const { return cfg.geom; }
    const TimingCycles &tc() const { return model.cycles(); }
    const ControllerStats &stats() const { return stats_; }
    RefreshScheme &scheme() { return *refreshScheme; }
    const RefreshScheme &scheme() const { return *refreshScheme; }
    ParaSampler &para() { return paraSampler; }
    /**
     * Recorded command trace, sorted by issue cycle (HiRA's inner PRE /
     * second ACT are recorded at issue time but occupy future bus
     * slots).
     */
    std::vector<Command> trace() const;

    /** Flat index of (rank, bank), forwarded to the timing model. */
    std::size_t bankIndex(int rank, BankId bank) const
    {
        return model.bankIndex(rank, bank);
    }
    /** Rank of a flat bank index, forwarded to the timing model. */
    int rankOf(std::size_t idx) const { return model.rankOf(idx); }

    /** True if the bank is withheld from demand scheduling. */
    bool bankBlocked(std::size_t idx) const
    {
        return refreshOpen.test(idx) || preventivePending.test(idx);
    }

    /**
     * Hold all new activations to the rank (REF preparation: the rank
     * must drain to all-banks-precharged before a REF can issue).
     */
    void setRankHold(int rank, bool hold);
    bool rankHeld(int rank) const
    {
        return heldBanks.test(model.bankIndex(rank, 0));
    }

    /** Pending preventive refreshes on the bank (immediate PARA). */
    std::size_t pendingPreventive(std::size_t idx) const
    {
        return preventiveVictims[idx].size();
    }

    /**
     * Test-only O(queue) audit of the per-bank request queues and the
     * bank masks: every request sits in its own bank's queue of its
     * class, in arrival order; the totals match the queues; the four
     * bit words and the oldest-hit arrival numbers agree with a recount
     * of the queues against the open rows; the open and held masks
     * agree with the open rows and the rank holds. Then, at the next
     * tick's cycle, bank by bank against the scalar earliest-command
     * queries: each kind's ready mask, which reads the same per-bank
     * timing bound as the scalars, so this checks readyMask's kind
     * dispatch; and every pick mask and the three wake masks and their
     * earliest reductions, which checks the controller's bit algebra
     * against the per-bank rules it encodes. Returns "" when they
     * agree, else a description of the first mismatch.
     */
    std::string countIndexAudit() const;

  private:
    /** oldestBank's result when no bank qualifies. */
    static constexpr std::size_t kNoBank = ~std::size_t(0);

    /** A queued request and its channel-wide arrival number. */
    struct Queued
    {
        std::uint64_t seq;
        Request req;
    };
    /** One bank's requests of one class, oldest first. */
    using BankQueue = std::vector<Queued>;

    /**
     * Rebuild the bank's four bits and two oldest-hit arrival numbers
     * from its two queues and open row.
     */
    void syncBankBits(std::size_t idx);

    // Bank-mask words (word w: banks 64w .. 64w + 63).

    /**
     * The banks whose open row has a queued hit the scheduler still
     * honours: readHit always, writeHit only in write-drain mode
     * (mirroring which queues FR-FCFS serves). Gates conflict PREs in
     * the row pick and preventive closes in preventiveTick, and the
     * wake masks replay it so the event engine defers the same PREs
     * dense would.
     */
    std::uint64_t honouredHitWord(std::size_t w) const;
    /** The banks whose oldest hit of the class may take its RD / WR. */
    std::uint64_t columnReadyWord(bool is_read, Cycle now,
                                  std::size_t w) const;
    /**
     * The banks whose oldest request of the class may take its row
     * command: an unblocked closed bank of an unheld rank whose ACT may
     * issue, or an unblocked open bank without an honoured hit whose
     * conflict PRE may issue.
     */
    std::uint64_t rowReadyWord(bool is_read, Cycle now, std::size_t w) const;
    /** The open refresh rows whose auto-PRE may issue. */
    std::uint64_t autoPreWord(Cycle now, std::size_t w) const;
    /**
     * The wake bound's banks, by the command each waits for: a PRE, an
     * ACT, or the active class's RD / WR.
     */
    CommandWords wakeWords(std::size_t w) const;
    /** countIndexAudit's mask half, at cycle @p now. */
    std::string maskAudit(Cycle now) const;

    /**
     * The bank with the least @p key(idx) among the set bits of the
     * words @p mask(w), or kNoBank. Keys are arrival numbers, so no two
     * banks tie.
     */
    template <typename MaskFn, typename KeyFn>
    std::size_t
    oldestBank(MaskFn &&mask, KeyFn &&key) const
    {
        std::size_t best = kNoBank;
        std::uint64_t best_key = ~std::uint64_t(0);
        for (std::size_t w = 0; w < refreshOpen.wordCount(); ++w) {
            for (std::uint64_t m = mask(w); m != 0; m &= m - 1) {
                const std::size_t idx =
                    w * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
                const std::uint64_t k = key(idx);
                best = k < best_key ? idx : best;
                best_key = k < best_key ? k : best_key;
            }
        }
        return best;
    }

    /** Record a command on the bank (REF: the rank's first bank). */
    void record(CommandType type, Cycle cycle, std::size_t idx, RowId row,
                HiraRole role = HiraRole::None);
    void markIssued();
    bool slotReservedAt(Cycle c) const;
    /** True if neither future bus slot of a HiRA op issued now is taken. */
    bool hiraSlotsFree(Cycle now) const;
    /**
     * Issue HiRA (ACT @p first, PRE, ACT @p second) and reserve its two
     * future bus slots; returns the second ACT's cycle. Callers check
     * the bank, earliestHira and hiraSlotsFree, and do the ACT
     * bookkeeping.
     */
    Cycle issueHira(std::size_t idx, RowId first, RowId second, Cycle now);
    void autoPreTick(Cycle now);
    bool issueColumnIfReady(bool is_read, Cycle now);
    Cycle computeNextEvent(Cycle now) const;
    /** Refill nextEvent()'s cache from computeNextEvent(lastTick). */
    Cycle recomputeWake() const;
    /** Every activation funnels through here (PARA sampling hook). */
    void onRowActivation(std::size_t idx, RowId row, Cycle now);
    void preventiveTick(Cycle now);
    /**
     * writeMode after the write-drain hysteresis step on the current
     * queue depths (a pure function of them and writeMode).
     */
    bool nextWriteMode() const;
    void scheduleDemand(Cycle now);
    bool issueRowCommand(bool is_read, Cycle now);
    /**
     * Demand ACT of @p row on the closed bank @p idx, or a HiRA op that
     * hides a refresh under it (the case-1 hook).
     */
    void demandAct(std::size_t idx, RowId row, Cycle now);

    int channel;
    ControllerConfig cfg;
    ChannelTimingModel model;
    std::unique_ptr<RefreshScheme> refreshScheme;
    ParaSampler paraSampler;

    // One BankQueue per flat bankIndex() and class; nReads / nWrites are
    // the total depths the caps and drain watermarks apply to, and
    // nextSeq numbers arrivals channel-wide (oldest = least seq).
    std::vector<BankQueue> readQ, writeQ;
    std::size_t nReads = 0, nWrites = 0;
    std::uint64_t nextSeq = 0;
    std::vector<Completion> completions_;
    std::vector<Cycle> reservedSlots; //!< future HiRA PRE/ACT bus slots
    bool slotReservedNow = false; //!< the tick's own slot is reserved

    // The banks of held ranks (setRankHold sets a whole rank).
    BankBits heldBanks;
    // Immediate-PARA victims per bank (bankIndex order), and the banks
    // whose deque is non-empty: set by onRowActivation's push, cleared
    // by preventiveTick's pop of the last victim.
    std::vector<std::deque<RowId>> preventiveVictims;
    BankBits preventivePending;
    // Banks holding an open refresh row (refresh ACT or HiRA refresh
    // pair) whose auto-PRE is pending; withheld from demand and
    // preventive work until autoPreTick closes them.
    BankBits refreshOpen;
    bool writeMode = false;
    bool issuedThisCycle = false;
    Cycle lastTick = 0;
    std::size_t preventiveCursor = 0; //!< next preventiveTick scan start

    // Cached nextEvent() bound: invalidated by tick(), lowered by
    // enqueue(). mutable so the lazy recompute stays behind a const
    // query (the cycle engine never queries it and pays nothing).
    mutable Cycle nextWake = 0;
    mutable bool nextWakeValid = false;
    // Per-bank bits derived from the bank's queues: a request of the
    // class is queued, and one of them hits the bank's open row; with
    // the arrival number of the oldest such hit (kNoSeq when none).
    // enqueue sets them, tryPre clears the hit bits and numbers, and
    // syncBankBits rebuilds a bank's after an ACT or a column issue.
    // The wake bound and the FR-FCFS picks combine them into bank masks
    // (hit bits for column commands, queued bits for row commands), so
    // they run over banks, not queue entries.
    BankBits readQueued, writeQueued, readHit, writeHit;
    std::vector<std::uint64_t> readHitSeq, writeHitSeq;

    ControllerStats stats_;
    CommandTraceRecorder recorder;

    // Observability (all nullptr when metrics are off; the ControllerStats
    // command mix is mirrored into the registry at snapshot time instead
    // of being double-counted here). mRowHits counts column issues (every
    // column issue hits the open row under FR-FCFS), mRowMisses demand
    // ACTs into a closed bank, mRowConflicts conflict PREs; mWakeRecomputes
    // counts lazy nextEvent() horizon recomputes (cache invalidations) and
    // mWakeLowers accepted-enqueue wake lowerings. Per-bank enqueue
    // counters live in mBankReads/mBankWrites (bankIndex order); queue
    // depth histograms are observed once per tick at MetricsLevel::Full.
    std::vector<Counter *> mBankReads, mBankWrites;
    Counter *mRowHits = nullptr;
    Counter *mRowMisses = nullptr;
    Counter *mRowConflicts = nullptr;
    mutable Counter *mWakeRecomputes = nullptr;
    Counter *mWakeLowers = nullptr;
    HistogramMetric *mReadQDepth = nullptr;
    HistogramMetric *mWriteQDepth = nullptr;
};

} // namespace hira

#endif // HIRA_MEM_CONTROLLER_HH
