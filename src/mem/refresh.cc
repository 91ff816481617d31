#include "mem/refresh.hh"

#include "common/logging.hh"
#include "mem/controller.hh"

namespace hira {

void
BaselineRefresh::attach(MemoryController *controller,
                        const MetricScope &scope)
{
    RefreshScheme::attach(controller, scope);
    const Geometry &geom = controller->geometry();
    nextRefAt.resize(static_cast<std::size_t>(geom.ranksPerChannel));
    debt.assign(static_cast<std::size_t>(geom.ranksPerChannel), 0);
    closing.assign(static_cast<std::size_t>(geom.ranksPerChannel), false);
    for (int r = 0; r < geom.ranksPerChannel; ++r)
        nextRefAt[static_cast<std::size_t>(r)] = firstRefAt(r);
}

Cycle
BaselineRefresh::firstRefAt(int rank) const
{
    return ctrl->tc().refi * static_cast<Cycle>(rank + 1) /
           static_cast<Cycle>(ctrl->geometry().ranksPerChannel);
}

void
BaselineRefresh::tick(Cycle now)
{
    const Geometry &geom = ctrl->geometry();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        // Accrue due REFs into the debt counter.
        while (now >= nextRefAt[ri]) {
            ++debt[ri];
            nextRefAt[ri] += ctrl->tc().refi;
        }
        if (debt[ri] == 0) {
            if (closing[ri]) {
                ctrl->setRankHold(r, false);
                closing[ri] = false;
            }
            continue;
        }

        // REF is due: hold new activations, drain open banks, issue.
        if (!closing[ri]) {
            closing[ri] = true;
            ctrl->setRankHold(r, true);
        }
        if (ctrl->tryRef(r, now)) {
            --debt[ri];
            closing[ri] = false;
            ctrl->setRankHold(r, false);
            ++stats_.refCommands;
            return;
        }
        if (ctrl->tryCloseOneBank(r, now))
            return;
    }
}

Cycle
BaselineRefresh::nextEventCycle(Cycle now) const
{
    Cycle wake = kNeverCycle;
    const Geometry &geom = ctrl->geometry();
    for (int r = 0; r < geom.ranksPerChannel; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        // Draining banks toward a REF, or a REF still due (a tick may
        // return before reaching this rank, or be gated by a reserved
        // HiRA bus slot): act on the next cycle.
        if (closing[ri] || debt[ri] > 0)
            return now + 1;
        if (nextRefAt[ri] < wake)
            wake = nextRefAt[ri]; // next debt accrual instant
    }
    return wake;
}

} // namespace hira
