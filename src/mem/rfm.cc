#include "mem/rfm.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

RfmRefresh::RfmRefresh(const RfmConfig &config) : cfg(config)
{
    hira_assert(cfg.raaimt > 0);
    hira_assert(cfg.queueCap > 0);
}

void
RfmRefresh::attach(MemoryController *controller, const MetricScope &scope)
{
    BaselineRefresh::attach(controller, scope);
    const Geometry &geom = controller->geometry();
    std::size_t nbanks = static_cast<std::size_t>(geom.banksPerChannel());
    raa.assign(nbanks, 0);
    victims.reset(nbanks, cfg.queueCap);
    mRfmTriggers = scope.counter("rfm_triggers");
}

void
RfmRefresh::onActivate(std::size_t bank, RowId row, Cycle now)
{
    (void)now;
    if (++raa[bank] < cfg.raaimt)
        return;
    // RAAIMT crossed: the bank owes an RFM. Subtracting (not zeroing)
    // the threshold keeps the rolling-counter semantics when several
    // ACTs land between drain opportunities.
    raa[bank] -= cfg.raaimt;
    count(mRfmTriggers);
    victims.pushNeighbors(bank, row, ctrl->geometry().rowsPerBank, stats_);
}

void
RfmRefresh::tick(Cycle now)
{
    BaselineRefresh::tick(now);
    if (ctrl->busFree(now))
        victims.drain(*ctrl, now, stats_);
}

Cycle
RfmRefresh::nextEventCycle(Cycle now) const
{
    // Queued victims drain against per-bank timing gates (auto-PRE,
    // rank holds); poll densely while any are pending — the queues are
    // tiny, so the window is short. RAA counters only change via
    // onActivate, i.e. on issues, which force a poll anyway.
    if (victims.pending() > 0)
        return now + 1;
    return BaselineRefresh::nextEventCycle(now);
}

} // namespace hira
