#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "sim/scheme_registry.hh"
#include "workload/registry.hh"

namespace hira {

SimEngine
defaultSimEngine()
{
    return SimEngine::EventLoop;
}

const char *
simEngineName(SimEngine engine)
{
    return engine == SimEngine::CycleLoop ? "cycle" : "event";
}

std::unique_ptr<RefreshScheme>
System::makeScheme() const
{
    // Factory dispatch through the scheme registry: adding a scheme is
    // one registry entry, with no switch to extend here (an
    // unregistered kind panics inside schemeEntryByKind).
    return schemeEntryByKind(cfg.scheme).make(cfg);
}

ControllerConfig
controllerConfig(const SystemConfig &cfg, int ch)
{
    ControllerConfig cc;
    cc.geom = cfg.geom;
    cc.tp = cfg.tp;
    cc.para = cfg.para;
    cc.para.seed = hashCombine(cfg.seed, 0xca0 + ch);
    cc.paraImmediate = cfg.scheme != SchemeKind::HiraMc;
    cc.recordTrace = cfg.recordTraces;
    return cc;
}

System::System(const SystemConfig &config)
    : cfg(config), mapper(config.geom)
{
    // Observability first, so component scopes can hang off the
    // registry. The kernel's own metrics live under "kernel."; trace
    // sampling caches the enabled global log once.
    if (cfg.metricsLevel != MetricsLevel::Off)
        metrics_ = std::make_unique<MetricRegistry>(cfg.metricsLevel);
    MetricScope root(metrics_.get(), "");
    MetricScope kernel = root.sub("kernel");
    mSkipLen = kernel.histogram("skip_len", 0.0, 4096.0, 64);
    mLlcStallSkips = kernel.counter("llc_stall_skips");
    if (TraceEventLog::global().enabled())
        tracer_ = &TraceEventLog::global();

    // Controllers, one per channel.
    for (int ch = 0; ch < cfg.geom.channels; ++ch) {
        ControllerConfig cc = controllerConfig(cfg, ch);
        cc.metrics = root.sub(strprintf("ctrl%d", ch));
        controllers.push_back(std::make_unique<MemoryController>(
            ch, cc, makeScheme()));
    }

    // Shared LLC routes misses by channel and notifies cores on fills.
    llc = std::make_unique<Llc>(
        cfg.llc,
        [this](const Request &req) { return route(req); },
        [this](int core_id, std::uint64_t tag, Cycle) {
            cores[static_cast<std::size_t>(core_id)]->onDataReturn(tag);
        });

    // Cores with private address-space slices; workload specs resolve
    // through the registry (synthetic pool names or "file:" traces).
    std::size_t ncores = cfg.mix.size();
    hira_assert(ncores > 0);
    Addr slice = mapper.addressSpaceBytes() / ncores;
    for (std::size_t i = 0; i < ncores; ++i) {
        std::unique_ptr<TraceSource> src =
            WorkloadRegistry::global().makeSource(
                cfg.mix[i], hashCombine(cfg.seed, 0xc04e + i), slice * i,
                slice);
        if (!cfg.traceDumpDir.empty()) {
            std::string path = strprintf(
                "%s/core%zu.%s", cfg.traceDumpDir.c_str(), i,
                cfg.traceDumpFormat == TraceFormat::Binary ? "bin"
                                                           : "trace");
            src = std::make_unique<TraceRecorder>(std::move(src), path,
                                                  cfg.traceDumpFormat);
        }
        sources.push_back(std::move(src));
        cores.push_back(std::make_unique<CoreModel>(
            static_cast<int>(i), *sources.back(), *llc, cfg.coreWidth,
            cfg.windowEntries));
        cores.back()->attachMetrics(root.sub(strprintf("core%zu", i)));
    }
}

bool
System::route(const Request &req)
{
    Request r = req;
    r.da = mapper.decode(r.addr);
    r.arrival = memCycle;
    return controllers[static_cast<std::size_t>(r.da.channel)]->enqueue(r);
}

void
System::run(Cycle cycles)
{
    if (cfg.engine == SimEngine::EventLoop)
        runEvent(cycles);
    else
        runCycle(cycles);
}

void
System::drainCompletions(MemoryController &ctrl)
{
    // Deliver completed reads to the LLC; keep not-yet-arrived
    // completions (data still on the bus). Single pass: delivery order
    // and the surviving order both match the original vector order.
    // Deliveries only send writebacks toward the controllers, never
    // append to a completions vector, so iterating while delivering is
    // safe.
    auto &done = ctrl.completions();
    if (done.empty())
        return;
    std::size_t kept = 0;
    for (const Completion &comp : done) {
        if (comp.at <= memCycle)
            llc->onMemCompletion(comp.tag, memCycle);
        else
            done[kept++] = comp;
    }
    done.resize(kept);
}

void
System::executeCycle(bool all_controllers)
{
    // Controllers tick in channel order, matching the dense loop. A
    // cross-channel writeback drained from channel i may enqueue into
    // channel j > i and lower j's bound before j's turn, so each
    // bound is read when its channel comes up.
    for (std::size_t ch = 0; ch < controllers.size(); ++ch) {
        // Skipping a controller whose wake-up lies ahead is exact: its
        // tick would be a no-op and none of its completions are due
        // (nextEvent() lower-bounds both).
        if (all_controllers || controllers[ch]->nextEvent() <= memCycle) {
            controllers[ch]->tick(memCycle);
            ++loopStats_.ctrlTicks;
            drainCompletions(*controllers[ch]);
        }
    }
    if (llc->outboundPending())
        llc->tick(memCycle);

    // 3.2 GHz cores over a 1.2 GHz bus: 8 CPU ticks per 3 bus ticks.
    cpuAccum += 8;
    while (cpuAccum >= 3) {
        cpuAccum -= 3;
        for (auto &core : cores)
            core->tick(memCycle);
    }

    // Recompute the ticked controllers' bounds only now, after the LLC
    // pump and the core ticks delivered this cycle's enqueues: tick()
    // invalidated each one's cached bound, so this nextEvent() is the
    // lazy recompute over the full post-cycle state. Querying right
    // after tick() instead would freeze in the conservative arrival+1
    // that enqueue() lowers the bound to (lowerWake can only clamp),
    // degrading every busy controller to next-cycle polling. The
    // untouched controllers answer from their valid caches.
    if (!all_controllers) {
        for (const auto &ctrl : controllers)
            ctrl->nextEvent();
    }
}

void
System::runCycle(Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c) {
        ++memCycle;
        executeCycle(true);
    }
    loopStats_.simulatedCycles += cycles;
    loopStats_.executedCycles += cycles;
}

Cycle
System::firstActionableCycle() const
{
    // Cores first: any core that must tick normally pins the very next
    // cycle, and the check is O(1) per core, so busy phases pay almost
    // nothing for the probe.
    Cycle min_ticks = kNeverCycle;
    for (const auto &core : cores) {
        Cycle n = core->skipTicks();
        if (n == 0)
            return memCycle + 1;
        if (n < min_ticks)
            min_ticks = n;
    }
    Cycle wake = kNeverCycle;
    if (min_ticks != kNeverCycle) {
        // Largest m with (skipped CPU ticks over m bus cycles)
        // = floor((cpuAccum + 8m) / 3) <= min_ticks.
        Cycle m = (3 * min_ticks + 2 - cpuAccum) / 8;
        if (m == 0)
            return memCycle + 1;
        wake = memCycle + m + 1;
    }
    // Memory side: each controller's cached bound, recomputed by
    // executeCycle after each tick and lowered by enqueue() in between.
    // The LLC needs no wake of its own: its outbound queue only becomes
    // (and stays) non-empty after a failed send to a full controller
    // queue, and that rejection cannot lift until the rejecting
    // controller ticks, a cycle that controller's nextEvent() already
    // pins; executeCycle re-pumps the queue then. The LLC's tick in
    // between is observable only through the per-cycle rejection the
    // dense loop accrues on the head's target controller, which
    // runEvent adds back in closed form when it skips.
    for (const auto &ctrl : controllers)
        wake = std::min(wake, ctrl->nextEvent());
    return std::max(wake, memCycle + 1);
}

void
System::runEvent(Cycle cycles)
{
    const Cycle end = memCycle + cycles;
    while (memCycle < end) {
        Cycle first = firstActionableCycle();
        if (first > memCycle + 1) {
            // Cycles (memCycle, first) are provably no-ops for every
            // component: fast-forward the cores' stall / exhausted-run
            // ticks in bulk and jump straight to the horizon.
            Cycle last_skipped = std::min(first - 1, end);
            Cycle m = last_skipped - memCycle;
            observe(mSkipLen, static_cast<double>(m));
            if (llc->outboundPending()) {
                count(mLlcStallSkips);
                // Whenever the outbound queue is non-empty its head's
                // last send just failed (Llc::tick stops at the first
                // failure, and executeCycle pumped it this cycle), and
                // the rejecting controller cannot drain without a tick
                // — which no skipped cycle performs. The dense loop
                // would therefore re-offer and re-reject the head
                // exactly once per skipped cycle; accrue those m
                // rejections in closed form on the head's channel.
                const Request &head = llc->outboundHead();
                int ch = mapper.decode(head.addr).channel;
                controllers[static_cast<std::size_t>(ch)]
                    ->accrueRejected(m);
            }
            std::uint64_t ticks = (cpuAccum + 8 * m) / 3;
            cpuAccum = (cpuAccum + 8 * m) % 3;
            for (auto &core : cores)
                core->fastForward(ticks);
            memCycle = last_skipped;
            loopStats_.skippedCycles += m;
            if (memCycle >= end)
                break;
        }
        ++memCycle;
        ++loopStats_.executedCycles;
        // Perfetto counter tracks, sampled on an executed-cycle stride
        // so saturated phases don't flood the trace buffer. Purely
        // observational: nothing here feeds back into the simulation.
        if (tracer_ != nullptr) {
            if (traceSampleCountdown_ == 0) {
                traceSampleCountdown_ = 65536;
                tracer_->counter(
                    "kernel.executed_cycles",
                    static_cast<double>(loopStats_.executedCycles));
                tracer_->counter(
                    "kernel.skipped_cycles",
                    static_cast<double>(loopStats_.skippedCycles));
            }
            --traceSampleCountdown_;
        }
        executeCycle(false);
    }
    loopStats_.simulatedCycles += cycles;
}

void
System::resetStats()
{
    for (auto &core : cores)
        core->resetStats();
}

MetricsSnapshot
System::metricsSnapshot()
{
    if (metrics_ == nullptr)
        return MetricsSnapshot{};

    // Mirror every stats struct the simulator already keeps into the
    // registry. The mirrors are monotone counters written by value, so
    // MetricsSnapshot::diff scopes them to intervals exactly like the
    // live metrics; publishing here (cold path) instead of
    // double-counting at the hot sites keeps the Off/Counters overhead
    // at zero for the whole command mix.
    auto mirror = [this](const std::string &name, std::uint64_t v) {
        Counter *c = metrics_->counter(name);
        if (c != nullptr)
            c->value = v;
    };

    mirror("kernel.simulated_cycles", loopStats_.simulatedCycles);
    mirror("kernel.executed_cycles", loopStats_.executedCycles);
    mirror("kernel.skipped_cycles", loopStats_.skippedCycles);
    mirror("kernel.ctrl_ticks", loopStats_.ctrlTicks);

    // The event engine's wake-bound upkeep under the names bench/perf
    // reads: one re-key per controller tick (heap_rekeys) and one
    // lowering per accepted enqueue (heap_lowers). The dense loop reads
    // no wake bounds, so under it both are 0.
    const bool event = cfg.engine == SimEngine::EventLoop;
    std::uint64_t lowers = 0;
    for (std::size_t ch = 0; ch < controllers.size(); ++ch) {
        std::string p = strprintf("ctrl%zu.", ch);
        lowers += metrics_->counter(p + "wake_enqueue_lowers")->value;
        const ControllerStats &cs = controllers[ch]->stats();
        ControllerStats::forEachField([&](const char *name, auto m) {
            mirror(p + name, cs.*m);
        });
        const RefreshStats &rs = controllers[ch]->scheme().stats();
        RefreshStats::forEachField([&](const char *name, auto m) {
            mirror(p + "scheme." + name, rs.*m);
        });
    }
    mirror("kernel.heap_rekeys", event ? loopStats_.ctrlTicks : 0);
    mirror("kernel.heap_lowers", event ? lowers : 0);

    mirror("llc.hits", llc->hits);
    mirror("llc.misses", llc->misses);
    mirror("llc.writebacks", llc->writebacks);
    mirror("llc.mshr_merges", llc->mshrMerges);
    mirror("llc.blocked", llc->blocked);

    for (std::size_t i = 0; i < cores.size(); ++i) {
        std::string p = strprintf("core%zu.", i);
        mirror(p + "retired", cores[i]->retiredInstructions());
        mirror(p + "cpu_cycles", cores[i]->cpuCycles());
        mirror(p + "loads", cores[i]->loads);
        mirror(p + "stores", cores[i]->stores);
        mirror(p + "stall_cycles", cores[i]->stallCycles);
    }

    return metrics_->snapshot();
}

SystemResult
System::result() const
{
    SystemResult r;
    for (const auto &core : cores)
        r.ipc.push_back(core->ipc());
    for (const auto &ctrl : controllers) {
        r.controller += ctrl->stats();
        r.refresh += ctrl->scheme().stats();
    }
    r.memReads = r.controller.readsServed;
    r.memWrites = r.controller.writesServed;
    if (r.controller.readsServed > 0) {
        r.avgReadLatencyCycles =
            static_cast<double>(r.controller.readLatencySum) /
            static_cast<double>(r.controller.readsServed);
    }
    r.llcHits = llc->hits;
    r.llcMisses = llc->misses;
    return r;
}

} // namespace hira
