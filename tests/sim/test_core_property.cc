/**
 * @file
 * Property test: the run-length instruction window of CoreModel behaves
 * exactly like a window of one slot per instruction.
 *
 * SlotCore below is that reference: it pulls one instruction per
 * TraceSource::next() call, keeps a {done, readyAt, tag} slot per
 * window instruction, and finds a returning load by scanning the
 * window. Each model runs with its own LLC and its own seeded fake
 * memory, on identical scripted sources: one looping source that hands
 * out multi-instruction records, one "?once" source that runs dry, and
 * one that only implements next() (the default nextRecord()). The
 * driver fast-forwards every core whenever all of them report
 * skipTicks() > 0 and no memory event falls inside the skip, resets the
 * statistics mid-run, and after every step compares retired, loads,
 * stores, stall cycles, CPU cycles and skipTicks() core by core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"
#include "sim/core.hh"

using namespace hira;

namespace {

/** The reference: CoreModel with one window slot per instruction. */
class SlotCore
{
  public:
    SlotCore(int core_id, TraceSource &trace, Llc &shared_llc,
             int issue_width, int window_entries)
        : id(core_id), gen(trace), llc(shared_llc), width(issue_width),
          windowSize(window_entries),
          window(static_cast<std::size_t>(window_entries))
    {
    }

    Cycle
    skipTicks() const
    {
        if (steadyExhausted())
            return kNeverCycle;
        bool blocked =
            occupancy >= static_cast<std::size_t>(windowSize) ||
            hasPendingInst;
        if (!blocked)
            return 0;
        if (occupancy == 0)
            return kNeverCycle;
        const Slot &h = window[head];
        if (!h.done)
            return kNeverCycle;
        if (h.readyAt <= cpuCycle + 1)
            return 0;
        return h.readyAt - cpuCycle - 1;
    }

    void
    tick(Cycle mem_now)
    {
        ++cpuCycle;
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
                    break;
                std::uint64_t tag = nextTag++;
                LlcResult res = llc.access(pendingInst.isWrite,
                                           pendingInst.addr, id, tag, mem_now);
                if (res == LlcResult::Blocked) {
                    blockedCached = true;
                    blockedGen = llc.capacityGeneration();
                    break;
                }
                blockedCached = false;
                if (pendingInst.isWrite) {
                    ++stores;
                    s.done = true;
                    s.readyAt = cpuCycle;
                } else {
                    ++loads;
                    if (res == LlcResult::Hit) {
                        s.done = true;
                        s.readyAt = cpuCycle + 30;
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
    onDataReturn(std::uint64_t tag)
    {
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
        FAIL() << "return for tag " << tag << " matches no waiting slot";
    }

    void
    fastForward(Cycle nticks)
    {
        if (nticks == 0)
            return;
        if (steadyExhausted()) {
            std::size_t wsize = window.size();
            cpuCycle += nticks;
            retired += static_cast<std::uint64_t>(width) * nticks;
            std::size_t adv = static_cast<std::size_t>(
                (static_cast<std::uint64_t>(width) * nticks) % wsize);
            head = (head + adv) % wsize;
            tail = (tail + adv) % wsize;
            for (std::size_t pos = 0; pos < wsize; ++pos) {
                std::size_t off = (pos + wsize - head) % wsize;
                if (off >= occupancy)
                    window[pos].valid = false;
            }
            std::uint64_t redispatched =
                std::min(static_cast<std::uint64_t>(width) * nticks,
                         static_cast<std::uint64_t>(occupancy));
            for (std::uint64_t j = 0; j < redispatched; ++j) {
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
        cpuCycle += nticks;
        stallCycles += nticks;
    }

    void
    resetStats()
    {
        retired = 0;
        cpuCycle = 0;
        loads = 0;
        stores = 0;
        stallCycles = 0;
    }

    std::uint64_t retiredInstructions() const { return retired; }
    Cycle cpuCycles() const { return cpuCycle; }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t stallCycles = 0;

  private:
    struct Slot
    {
        bool valid = false;
        bool done = false;
        Cycle readyAt = 0;
        std::uint64_t tag = 0;
        bool waitingMem = false;
    };

    bool
    steadyExhausted() const
    {
        return waitingMemCount == 0 && !hasPendingInst &&
               maxReadyAt <= cpuCycle &&
               occupancy >= static_cast<std::size_t>(width) &&
               windowSize >= width && gen.exhausted();
    }

    int id;
    TraceSource &gen;
    Llc &llc;
    int width;
    int windowSize;
    std::vector<Slot> window;
    std::size_t head = 0, tail = 0, occupancy = 0;
    std::uint64_t nextTag = 1;
    bool hasPendingInst = false;
    TraceInst pendingInst;
    bool blockedCached = false;
    std::uint64_t blockedGen = 0;
    std::size_t waitingMemCount = 0;
    Cycle maxReadyAt = 0;
    Cycle cpuCycle = 0;
    std::uint64_t retired = 0;
};

/** Random records over @p lines lines at @p base; none empty. */
std::vector<TraceRecord>
script(std::uint64_t seed, std::size_t count, Addr base, std::uint64_t lines)
{
    Rng rng(seed);
    std::vector<TraceRecord> recs(count);
    for (TraceRecord &r : recs) {
        // Mostly short runs, now and then one longer than any window.
        r.nonMem = rng.chance(0.1) ? rng.below(300) : rng.below(5);
        if (rng.chance(0.9)) {
            r.access.isMem = true;
            r.access.isWrite = rng.chance(0.3);
            r.access.addr = base + rng.below(lines) * 64;
        } else if (r.nonMem == 0) {
            r.nonMem = 1;
        }
    }
    return recs;
}

/**
 * Scripted source with the FileTraceSource contract: the records in
 * order, looping or (once) idling on non-memory runs after the last,
 * exhausted() from the first pull past the end.
 */
class ScriptSource final : public TraceSource
{
  public:
    ScriptSource(std::vector<TraceRecord> r, bool loop)
        : recs(std::move(r)), looping(loop)
    {
    }

    TraceInst
    next() override
    {
        if (staged.nonMem == 0 && !staged.access.isMem)
            staged = fetch();
        if (staged.nonMem > 0) {
            --staged.nonMem;
            return TraceInst{};
        }
        TraceInst inst = staged.access;
        staged.access = TraceInst{};
        return inst;
    }

    TraceRecord
    nextRecord() override
    {
        if (staged.nonMem == 0 && !staged.access.isMem)
            return fetch();
        TraceRecord r = staged;
        staged = TraceRecord{};
        return r;
    }

    bool exhausted() const override { return dry; }

  private:
    TraceRecord
    fetch()
    {
        if (pos == recs.size()) {
            if (!looping) {
                dry = true;
                TraceRecord idle;
                idle.nonMem = 1000;
                return idle;
            }
            pos = 0;
        }
        return recs[pos++];
    }

    std::vector<TraceRecord> recs;
    bool looping;
    std::size_t pos = 0;
    TraceRecord staged;
    bool dry = false;
};

/** A source that implements next() only: cores get the default records. */
class NextOnly final : public TraceSource
{
  public:
    explicit NextOnly(std::vector<TraceRecord> r) : inner(std::move(r), false)
    {
    }
    TraceInst next() override { return inner.next(); }
    bool exhausted() const override { return inner.exhausted(); }

  private:
    ScriptSource inner;
};

/**
 * One model's world: its LLC, a fake memory that accepts sends and
 * times fills from its own Rng, and three cores on the scripted
 * sources. Memory runs one step every other CPU tick.
 */
template <class Core>
struct World
{
    struct Fill
    {
        Cycle at;
        std::uint64_t tag;
    };

    World(std::uint64_t seed, int width, int window)
        : rng(seed),
          llc(
              llcConfig(),
              [this](const Request &r) {
                  if (!rng.chance(0.8))
                      return false;
                  if (r.type == MemType::Read)
                      fills.push_back({memNow + 10 + rng.below(80), r.tag});
                  return true;
              },
              [this](int core, std::uint64_t tag, Cycle) {
                  cores[static_cast<std::size_t>(core)]->onDataReturn(tag);
              })
    {
        const Addr slice = Addr(1) << 20;
        src.push_back(std::make_unique<ScriptSource>(
            script(seed + 1, 400, 0, 700), true));
        src.push_back(std::make_unique<ScriptSource>(
            script(seed + 2, 150, slice, 700), false));
        src.push_back(
            std::make_unique<NextOnly>(script(seed + 3, 250, 2 * slice, 300)));
        for (std::size_t i = 0; i < src.size(); ++i)
            cores.push_back(std::make_unique<Core>(
                static_cast<int>(i), *src[i], llc, width, window));
    }

    static LlcConfig
    llcConfig()
    {
        LlcConfig c;
        c.sizeBytes = 64 * 4 * 64; // 64 sets x 4 ways
        c.ways = 4;
        c.mshrs = 6;
        c.outboundCap = 3;
        return c;
    }

    /** Deliver the fills due at memNow (in issue order), then pump. */
    void
    memoryStep()
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < fills.size(); ++i) {
            if (fills[i].at <= memNow)
                llc.onMemCompletion(fills[i].tag, memNow);
            else
                fills[kept++] = fills[i];
        }
        fills.resize(kept);
        llc.tick(memNow);
    }

    /** First memory cycle from memNow on whose step does any work. */
    Cycle
    nextMemoryWork() const
    {
        if (llc.outboundPending())
            return memNow;
        Cycle at = kNeverCycle;
        for (const Fill &f : fills)
            at = std::min(at, std::max(f.at, memNow));
        return at;
    }

    Rng rng;
    Cycle memNow = 0;
    std::vector<Fill> fills;
    Llc llc;
    std::vector<std::unique_ptr<TraceSource>> src;
    std::vector<std::unique_ptr<Core>> cores;
};

void
expectSameCores(const World<SlotCore> &a, const World<CoreModel> &b,
                std::uint64_t tick)
{
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        const SlotCore &x = *a.cores[i];
        const CoreModel &y = *b.cores[i];
        ASSERT_EQ(x.retiredInstructions(), y.retiredInstructions())
            << "core " << i << " at tick " << tick;
        ASSERT_EQ(x.loads, y.loads) << "core " << i << " at tick " << tick;
        ASSERT_EQ(x.stores, y.stores) << "core " << i << " at tick " << tick;
        ASSERT_EQ(x.stallCycles, y.stallCycles)
            << "core " << i << " at tick " << tick;
        ASSERT_EQ(x.cpuCycles(), y.cpuCycles())
            << "core " << i << " at tick " << tick;
        ASSERT_EQ(x.skipTicks(), y.skipTicks())
            << "core " << i << " at tick " << tick;
    }
}

struct Shape
{
    int window;
    int width;
};

class CoreOracle : public ::testing::TestWithParam<Shape>
{
};

TEST_P(CoreOracle, RunLengthWindowMatchesSlots)
{
    const Shape shape = GetParam();
    const std::uint64_t seed =
        0xc0 + static_cast<std::uint64_t>(shape.window * 8 + shape.width);
    World<SlotCore> ref(seed, shape.width, shape.window);
    World<CoreModel> run(seed, shape.width, shape.window);
    Rng driver(seed * 7);

    constexpr std::uint64_t kTicks = 60000;
    constexpr std::uint64_t kResetAt = 20000;
    std::uint64_t ffTicks = 0, ffDryTicks = 0;
    bool reset = false;
    for (std::uint64_t t = 0; t < kTicks;) {
        expectSameCores(ref, run, t);
        if (::testing::Test::HasFatalFailure())
            return;
        if (!reset && t >= kResetAt) {
            for (std::size_t i = 0; i < ref.cores.size(); ++i) {
                ref.cores[i]->resetStats();
                run.cores[i]->resetStats();
            }
            reset = true;
            continue;
        }
        const bool memory_tick = t % 2 == 0;
        if (memory_tick) {
            ref.memNow = run.memNow = t / 2;
        }

        // Fast-forward all cores together when each can skip, up to the
        // tick whose memory step would do work.
        Cycle skip = kNeverCycle;
        for (const auto &c : ref.cores)
            skip = std::min(skip, c->skipTicks());
        if (skip > 0 && driver.chance(0.9)) {
            // Memory cycle m steps at tick 2m; the next step is at
            // memory cycle ceil(t / 2).
            Cycle mem_at = ref.nextMemoryWork();
            Cycle until =
                mem_at == kNeverCycle
                    ? kNeverCycle
                    : 2 * std::max<Cycle>(mem_at, (t + 1) / 2) - t;
            Cycle n = std::min({skip, until, kTicks - t,
                                static_cast<Cycle>(1 + driver.below(400))});
            if (n > 0) {
                bool dry = false;
                for (const auto &s : ref.src)
                    dry = dry || s->exhausted();
                for (std::size_t i = 0; i < ref.cores.size(); ++i) {
                    ref.cores[i]->fastForward(n);
                    run.cores[i]->fastForward(n);
                }
                ffTicks += n;
                ffDryTicks += dry ? n : 0;
                t += n;
                continue;
            }
        }
        if (memory_tick) {
            ref.memoryStep();
            run.memoryStep();
        }
        for (std::size_t i = 0; i < ref.cores.size(); ++i) {
            ref.cores[i]->tick(ref.memNow);
            run.cores[i]->tick(run.memNow);
        }
        ++t;
    }
    expectSameCores(ref, run, kTicks);
    EXPECT_EQ(run.llc.hits, ref.llc.hits);
    EXPECT_EQ(run.llc.blocked, ref.llc.blocked);
    // The run reached the paths the property is about.
    EXPECT_GT(ffTicks, 0u);
    EXPECT_GT(ffDryTicks, 0u);
    EXPECT_TRUE(run.src[1]->exhausted());
    EXPECT_TRUE(run.src[2]->exhausted());
    EXPECT_GT(run.llc.blocked, 0u);
}

std::vector<Shape>
shapes()
{
    std::vector<Shape> out;
    for (int window : {3, 5, 128, 130})
        for (int width : {1, 3, 4})
            out.push_back({window, width});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndWidths, CoreOracle, ::testing::ValuesIn(shapes()),
    [](const ::testing::TestParamInfo<Shape> &p) {
        return "window" + std::to_string(p.param.window) + "_width" +
               std::to_string(p.param.width);
    });

/** One core on a one-load script whose fill is delivered by hand. */
struct OneLoad
{
    OneLoad()
        : llc(
              LlcConfig{},
              [this](const Request &r) {
                  fills.push_back(r.tag);
                  return true;
              },
              [this](int, std::uint64_t tag, Cycle) {
                  returned.push_back(tag);
                  core.onDataReturn(tag);
              }),
          src({TraceRecord{0, TraceInst{true, false, 0}}}, false),
          core(0, src, llc, 4, 8)
    {
    }

    std::vector<std::uint64_t> fills;
    std::vector<std::uint64_t> returned;
    Llc llc;
    ScriptSource src;
    CoreModel core;
};

TEST(CoreModel, HitLatencyComesFromTheLlcConfig)
{
    // CPU cycle at which a core retires one load that hits the LLC.
    auto retire_at = [](int hit_latency) {
        LlcConfig cfg;
        cfg.hitLatencyCpu = hit_latency;
        std::vector<std::uint64_t> fills;
        Llc llc(
            cfg,
            [&fills](const Request &r) {
                fills.push_back(r.tag);
                return true;
            },
            [](int, std::uint64_t, Cycle) {});
        // Install the line through core 1, which has no model, so the
        // core's load of it hits.
        EXPECT_EQ(llc.access(false, 0, 1, 0, 0), LlcResult::Miss);
        EXPECT_EQ(fills.size(), 1u);
        llc.onMemCompletion(fills[0], 0);
        ScriptSource src({TraceRecord{0, TraceInst{true, false, 0}}}, false);
        CoreModel core(0, src, llc, 4, 8);
        while (core.retiredInstructions() == 0)
            core.tick(0);
        EXPECT_EQ(llc.hits, 1u);
        return core.cpuCycles();
    };
    const Cycle at30 = retire_at(30);
    EXPECT_GT(at30, 30u);
    EXPECT_EQ(retire_at(60), at30 + 30);
}

TEST(CoreModelDeathTest, ReturnForNoWaitingLoadIsFatal)
{
    OneLoad w;
    EXPECT_DEATH(w.core.onDataReturn(42), "assertion failed");
}

TEST(CoreModelDeathTest, SecondReturnForOneLoadIsFatal)
{
    OneLoad w;
    while (w.fills.empty())
        w.core.tick(0);
    w.llc.onMemCompletion(w.fills[0], 1);
    ASSERT_EQ(w.returned.size(), 1u);
    EXPECT_DEATH(w.core.onDataReturn(w.returned[0]), "assertion failed");
}

} // namespace
