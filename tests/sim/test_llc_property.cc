/**
 * @file
 * Property test: the packed LLC tag store (one tag word and one rank
 * byte per way) behaves exactly like a per-line LRU-stamp cache.
 *
 * StampLlc below is that reference: every way holds a Line with its own
 * valid and dirty flags and a stamp from a global LRU clock, and the
 * victim is the first invalid way, else the way with the oldest stamp.
 * Both caches take the same random read/write stream over a few sets,
 * with memory that accepts or refuses sends at random and completes
 * fills in random order, and small MSHR and outbound limits so that
 * evictions, dirty writebacks, MSHR merges and Blocked all occur. After
 * every step both must agree on the access result, the requests sent,
 * the fills notified, every counter and capacityGeneration().
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"

using namespace hira;

namespace {

/** The reference: a per-line LRU-stamp cache with Llc's interface. */
class StampLlc
{
  public:
    using SendFn = Llc::SendFn;
    using NotifyFn = Llc::NotifyFn;

    StampLlc(const LlcConfig &config, SendFn send_fn, NotifyFn notify_fn)
        : cfg(config), send(std::move(send_fn)), notify(std::move(notify_fn))
    {
        sets = cfg.sizeBytes / (static_cast<std::uint64_t>(cfg.ways) *
                                static_cast<std::uint64_t>(cfg.lineBytes));
        lines.assign(sets * static_cast<std::size_t>(cfg.ways), Line{});
    }

    LlcResult
    access(bool is_write, Addr addr, int core_id, std::uint64_t tag,
           Cycle mem_now)
    {
        Addr line = addr / static_cast<Addr>(cfg.lineBytes);
        if (Line *l = lookup(line)) {
            l->lru = ++lruClock;
            l->dirty = l->dirty || is_write;
            ++hits;
            return LlcResult::Hit;
        }
        auto by_line = mshrByLine.find(line);
        if (by_line != mshrByLine.end()) {
            Mshr &m = mshrs[by_line->second];
            m.writeIntent = m.writeIntent || is_write;
            if (!is_write)
                m.waiters.push_back({core_id, tag});
            ++mshrMerges;
            ++misses;
            return LlcResult::Miss;
        }
        if (mshrs.size() >= cfg.mshrs ||
            outbound.size() >= cfg.outboundCap) {
            ++blocked;
            return LlcResult::Blocked;
        }
        std::uint64_t mem_tag = nextMemTag++;
        Request req;
        req.type = MemType::Read;
        req.addr = line * static_cast<Addr>(cfg.lineBytes);
        req.coreId = core_id;
        req.tag = mem_tag;
        req.arrival = mem_now;
        if (!sendOrQueue(req)) {
            ++blocked;
            return LlcResult::Blocked;
        }
        Mshr m;
        m.lineAddr = line;
        m.writeIntent = is_write;
        if (!is_write)
            m.waiters.push_back({core_id, tag});
        mshrs.emplace(mem_tag, std::move(m));
        mshrByLine.emplace(line, mem_tag);
        ++misses;
        return LlcResult::Miss;
    }

    void
    onMemCompletion(std::uint64_t mem_tag, Cycle mem_now)
    {
        auto it = mshrs.find(mem_tag);
        ASSERT_NE(it, mshrs.end());
        Mshr m = std::move(it->second);
        mshrs.erase(it);
        mshrByLine.erase(m.lineAddr);
        install(m.lineAddr, m.writeIntent, mem_now);
        ++capGen;
        for (const Waiter &w : m.waiters)
            notify(w.coreId, w.tag, mem_now);
    }

    void
    tick(Cycle)
    {
        while (!outbound.empty()) {
            if (!send(outbound.front()))
                return;
            outbound.pop_front();
            ++capGen;
        }
    }

    bool outboundPending() const { return !outbound.empty(); }
    std::uint64_t capacityGeneration() const { return capGen; }

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

    Line *
    lookup(Addr line)
    {
        std::size_t base = (line % sets) * static_cast<std::size_t>(cfg.ways);
        for (int w = 0; w < cfg.ways; ++w) {
            Line &l = lines[base + static_cast<std::size_t>(w)];
            if (l.valid && l.tag == line)
                return &l;
        }
        return nullptr;
    }

    bool
    sendOrQueue(const Request &req)
    {
        if (outbound.empty() && send(req))
            return true;
        if (outbound.size() >= cfg.outboundCap)
            return false;
        outbound.push_back(req);
        return true;
    }

    void
    install(Addr line, bool dirty, Cycle mem_now)
    {
        std::size_t base = (line % sets) * static_cast<std::size_t>(cfg.ways);
        Line *victim = nullptr;
        for (int w = 0; w < cfg.ways; ++w) {
            Line &l = lines[base + static_cast<std::size_t>(w)];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (victim == nullptr || l.lru < victim->lru)
                victim = &l;
        }
        if (victim->valid && victim->dirty) {
            Request wb;
            wb.type = MemType::Write;
            wb.addr = victim->tag * static_cast<Addr>(cfg.lineBytes);
            wb.coreId = -1;
            wb.tag = 0;
            wb.arrival = mem_now;
            if (!(outbound.empty() && send(wb)))
                outbound.push_back(wb);
            ++writebacks;
        }
        victim->valid = true;
        victim->dirty = dirty;
        victim->tag = line;
        victim->lru = ++lruClock;
    }

    LlcConfig cfg;
    SendFn send;
    NotifyFn notify;
    std::size_t sets;
    std::vector<Line> lines;
    std::uint64_t lruClock = 1;
    std::unordered_map<std::uint64_t, Mshr> mshrs;
    std::unordered_map<Addr, std::uint64_t> mshrByLine;
    std::uint64_t nextMemTag = 1;
    std::deque<Request> outbound;
    std::uint64_t capGen = 1;
};

/**
 * Memory side of one cache: accepts a send when its own Rng says so
 * (both sides draw from equal seeds, one draw per send, so they accept
 * alike while they send alike) and keeps the accepted reads' tags.
 */
struct Memory
{
    explicit Memory(std::uint64_t seed) : rng(seed) {}

    bool
    send(const Request &r)
    {
        if (!rng.chance(0.7))
            return false;
        log.push_back(r);
        if (r.type == MemType::Read)
            inflight.push_back(r.tag);
        return true;
    }

    Rng rng;
    std::vector<Request> log;
    std::vector<std::uint64_t> inflight;
    std::vector<std::pair<int, std::uint64_t>> notified;
};

void
expectSameCounters(const Llc &a, const StampLlc &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.mshrMerges, b.mshrMerges);
    EXPECT_EQ(a.blocked, b.blocked);
    EXPECT_EQ(a.capacityGeneration(), b.capacityGeneration());
    EXPECT_EQ(a.outboundPending(), b.outboundPending());
}

/** Compare the requests both sides sent since @p from; advance it. */
void
expectSameRequests(const std::vector<Request> &a,
                   const std::vector<Request> &b, std::size_t &from)
{
    ASSERT_EQ(a.size(), b.size());
    for (; from < a.size(); ++from) {
        ASSERT_EQ(a[from].type, b[from].type) << "request " << from;
        ASSERT_EQ(a[from].addr, b[from].addr) << "request " << from;
        ASSERT_EQ(a[from].tag, b[from].tag) << "request " << from;
    }
}

class LlcOracle : public ::testing::TestWithParam<int>
{
};

TEST_P(LlcOracle, PackedStoreMatchesStampLru)
{
    const int ways = GetParam();
    constexpr int kSets = 4;
    constexpr int kSteps = 40000;
    LlcConfig cfg;
    cfg.ways = ways;
    cfg.sizeBytes = static_cast<std::uint64_t>(kSets * ways * 64);
    cfg.mshrs = 3;
    cfg.outboundCap = 2;

    const std::uint64_t seed = 0x11c0 + static_cast<std::uint64_t>(ways);
    Memory memA(seed), memB(seed);
    Llc packed(
        cfg, [&](const Request &r) { return memA.send(r); },
        [&](int c, std::uint64_t t, Cycle) { memA.notified.push_back({c, t}); });
    StampLlc stamp(
        cfg, [&](const Request &r) { return memB.send(r); },
        [&](int c, std::uint64_t t, Cycle) { memB.notified.push_back({c, t}); });

    // Lines over (ways + 2) tags per set: every set overflows, so
    // evictions follow from recency, and repeats hit and merge.
    const std::uint64_t nlines = static_cast<std::uint64_t>(kSets * (ways + 2));
    Rng rng(seed * 31);
    std::uint64_t results[3] = {0, 0, 0};
    std::size_t sentChecked = 0, notifiedChecked = 0;
    for (int step = 0; step < kSteps; ++step) {
        Cycle now = static_cast<Cycle>(step);
        std::uint64_t op = rng.below(10);
        if (op < 6) {
            bool write = rng.chance(0.35);
            Addr addr = rng.below(nlines) * 64 + rng.below(64);
            int core = static_cast<int>(rng.below(4));
            std::uint64_t tag = static_cast<std::uint64_t>(step) + 1;
            LlcResult ra = packed.access(write, addr, core, tag, now);
            LlcResult rb = stamp.access(write, addr, core, tag, now);
            ASSERT_EQ(ra, rb) << "step " << step;
            ++results[static_cast<int>(ra)];
        } else if (op < 9) {
            // Complete a random in-flight fill (out of order).
            ASSERT_EQ(memA.inflight, memB.inflight) << "step " << step;
            if (memA.inflight.empty())
                continue;
            std::size_t k = rng.below(memA.inflight.size());
            std::uint64_t tag = memA.inflight[k];
            memA.inflight.erase(memA.inflight.begin() +
                                static_cast<std::ptrdiff_t>(k));
            memB.inflight.erase(memB.inflight.begin() +
                                static_cast<std::ptrdiff_t>(k));
            packed.onMemCompletion(tag, now);
            stamp.onMemCompletion(tag, now);
        } else {
            packed.tick(now);
            stamp.tick(now);
        }
        expectSameCounters(packed, stamp);
        expectSameRequests(memA.log, memB.log, sentChecked);
        ASSERT_EQ(memA.notified.size(), memB.notified.size());
        for (; notifiedChecked < memA.notified.size(); ++notifiedChecked) {
            ASSERT_EQ(memA.notified[notifiedChecked],
                      memB.notified[notifiedChecked]);
        }
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    // The stream reached every path the property is about.
    EXPECT_GT(results[static_cast<int>(LlcResult::Hit)], 0u);
    EXPECT_GT(results[static_cast<int>(LlcResult::Miss)], 0u);
    EXPECT_GT(results[static_cast<int>(LlcResult::Blocked)], 0u);
    EXPECT_GT(packed.writebacks, 0u);
    EXPECT_GT(packed.mshrMerges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, LlcOracle, ::testing::Values(1, 4, 8, 16));

TEST(LlcPacking, ShapesThePackedStoreCannotHoldAreFatal)
{
    auto build = [](LlcConfig cfg) {
        Llc llc(cfg, [](const Request &) { return true; },
                [](int, std::uint64_t, Cycle) {});
    };
    LlcConfig narrow;
    narrow.lineBytes = 2; // a tag word needs two free bits
    EXPECT_EXIT(build(narrow), ::testing::ExitedWithCode(1),
                "lineBytes = 2 is not a power of two of at least 4");
    LlcConfig wide;
    wide.ways = 256; // a rank byte per way
    wide.sizeBytes = 256 * 64;
    EXPECT_EXIT(build(wide), ::testing::ExitedWithCode(1),
                "ways = 256 is not in \\[1, 255\\]");
}

} // namespace
