/**
 * @file
 * Shared last-level cache (Table 3: 8 MB, 8-way, 64 B lines).
 *
 * Write-allocate / write-back, LRU, with MSHRs that merge concurrent
 * misses to the same line. Misses and dirty writebacks go to the memory
 * controllers through a routing callback; returning fills notify the
 * waiting cores through a completion callback.
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

    /** Fatal when @p cfg's lineBytes is not a power of two. */
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
    struct Line
    {
        Addr tag = ~Addr(0);
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

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
    Line *lookup(Addr line);
    void install(Addr line, bool dirty, Cycle mem_now);
    bool sendOrQueue(const Request &req);

    LlcConfig cfg;
    int lineShift = 0; //!< log2(cfg.lineBytes)
    SendFn send;
    NotifyFn notify;
    std::size_t sets;
    std::vector<Line> lines; //!< sets x ways
    std::uint64_t lruClock = 1;
    std::unordered_map<std::uint64_t, Mshr> mshrs; //!< memTag -> MSHR
    std::unordered_map<Addr, std::uint64_t> mshrByLine;
    std::uint64_t nextMemTag = 1;
    std::deque<Request> outbound;
    std::uint64_t capGen = 1; //!< see capacityGeneration()
};

} // namespace hira

#endif // HIRA_SIM_CACHE_HH
