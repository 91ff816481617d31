/**
 * @file
 * Shared last-level cache (Table 3: 8 MB, 8-way, 64 B lines).
 *
 * Write-allocate / write-back, LRU, with MSHRs that merge concurrent
 * misses to the same line. Misses and dirty writebacks go to the memory
 * controllers through a routing callback; returning fills notify the
 * waiting cores through a completion callback. The tag store is packed:
 * one 8-byte tag word per way (valid and dirty bits folded in, 0 =
 * invalid) and one recency rank byte per way, in separate arrays.
 */

#ifndef HIRA_SIM_CACHE_HH
#define HIRA_SIM_CACHE_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"

namespace hira {

/** LLC geometry and latency. */
struct LlcConfig
{
    std::uint64_t sizeBytes = 8ull << 20;
    int ways = 8;
    int lineBytes = 64;
    int hitLatencyCpu = 30;   //!< CPU cycles to a hit
    std::size_t mshrs = 64;
    std::size_t outboundCap = 64; //!< miss/writeback staging queue
};

/** Outcome of a core-side access. */
enum class LlcResult
{
    Hit,     //!< data after hitLatencyCpu CPU cycles
    Miss,    //!< data when the memory fill returns
    Blocked, //!< MSHRs or outbound queue full; retry
};

/** The shared LLC. */
class Llc
{
  public:
    /** Routes a memory request toward its controller; false = retry. */
    using SendFn = std::function<bool(const Request &)>;
    /** Notifies a waiting core that its read data arrived. */
    using NotifyFn =
        std::function<void(int core_id, std::uint64_t tag, Cycle mem_now)>;

    /**
     * Fatal when @p cfg's lineBytes is not a power of two of at least 4
     * (a line number must leave two bits of its tag word free) or its
     * ways exceed 255 (a rank byte per way).
     */
    Llc(const LlcConfig &cfg, SendFn send, NotifyFn notify);

    /**
     * Core-side access.
     * @param tag core-side identifier returned through NotifyFn on miss
     */
    LlcResult access(bool is_write, Addr addr, int core_id,
                     std::uint64_t tag, Cycle mem_now);

    /** Memory completion for the controller read tagged @p mem_tag. */
    void onMemCompletion(std::uint64_t mem_tag, Cycle mem_now);

    /** Per-memory-cycle pump: retry queued outbound requests. */
    void tick(Cycle mem_now);

    /** True while the outbound miss/writeback queue holds requests. */
    bool outboundPending() const { return !outbound.empty(); }

    /** CPU cycles from a hit to its data (LlcConfig::hitLatencyCpu). */
    Cycle hitLatency() const { return static_cast<Cycle>(cfg.hitLatencyCpu); }

    /** Head of the outbound queue (outboundPending() must hold). */
    const Request &outboundHead() const { return outbound.front(); }

    /**
     * Monotone counter of LLC transitions after which a previously
     * Blocked access() could stop being Blocked: an MSHR freed, a line
     * installed, or an outbound slot drained. A core whose dispatch was
     * Blocked may skip re-issuing the access until this changes
     * (CoreModel::tick) — the retry is provably Blocked again,
     * in either engine, while the counter stands still.
     */
    std::uint64_t capacityGeneration() const { return capGen; }

    // Stats.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t blocked = 0;

  private:
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr std::uint8_t kInvalidRank = 0xff;

    struct Waiter
    {
        int coreId;
        std::uint64_t tag;
    };

    struct Mshr
    {
        Addr lineAddr;
        bool writeIntent = false;
        std::vector<Waiter> waiters;
    };

    Addr lineOf(Addr addr) const;
    std::size_t setOf(Addr line) const;
    /** Way of @p line in its set (first way at @p base), or -1. */
    int lookup(std::size_t base, Addr line) const;
    /** Make way @p way of the set at @p base the most recent. */
    void touch(std::size_t base, int way);
    void install(Addr line, bool dirty, Cycle mem_now);
    bool sendOrQueue(const Request &req);

    LlcConfig cfg;
    int lineShift = 0; //!< log2(cfg.lineBytes)
    SendFn send;
    NotifyFn notify;
    std::size_t sets;
    std::size_t ways; //!< cfg.ways
    /**
     * sets x ways tag words: line << 2 | kDirty | kValid, 0 when the
     * way is invalid. Lines are never invalidated, so a set's valid
     * ways are always a prefix of its ways.
     */
    std::vector<std::uint64_t> tags;
    /**
     * sets x ways recency ranks: 0 for the most recent valid way, up to
     * (valid ways - 1) for the least recent; kInvalidRank for an
     * invalid way, so that touching one ranks every valid way down.
     */
    std::vector<std::uint8_t> ranks;
    std::unordered_map<std::uint64_t, Mshr> mshrs; //!< memTag -> MSHR
    std::unordered_map<Addr, std::uint64_t> mshrByLine;
    std::uint64_t nextMemTag = 1;
    std::deque<Request> outbound;
    std::uint64_t capGen = 1; //!< see capacityGeneration()
};

} // namespace hira

#endif // HIRA_SIM_CACHE_HH
