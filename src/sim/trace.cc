#include "sim/trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hira {

namespace {

/** Fatal unless @p p, field @p field of @p prof, lies in [0, 1]. */
void
checkProbability(const BenchmarkProfile &prof, const char *field, double p)
{
    // Written to reject NaN too: every comparison with NaN is false.
    if (!(p >= 0.0 && p <= 1.0))
        fatal("benchmark profile '%s': %s = %g is not a probability in "
              "[0, 1]",
              prof.name.c_str(), field, p);
}

} // namespace

TraceGen::TraceGen(const BenchmarkProfile &profile, std::uint64_t seed,
                   Addr base_addr, Addr slice_bytes)
    : prof(profile), rng(seed), base(base_addr)
{
    checkProbability(prof, "memPerInstr", prof.memPerInstr);
    checkProbability(prof, "writeFraction", prof.writeFraction);
    checkProbability(prof, "streamFraction", prof.streamFraction);
    checkProbability(prof, "hotFraction", prof.hotFraction);
    memThreshold = Rng::chanceThreshold(prof.memPerInstr);
    writeThreshold = Rng::chanceThreshold(prof.writeFraction);
    hotThreshold = Rng::chanceThreshold(prof.hotFraction);
    streamThreshold = Rng::chanceThreshold(
        prof.hotFraction + prof.streamFraction * (1.0 - prof.hotFraction));

    hira_assert(slice_bytes >= 64);
    std::uint64_t slice_lines = slice_bytes / 64;
    footprint = std::min<std::uint64_t>(prof.footprintLines, slice_lines);
    hot = std::min<std::uint64_t>(prof.hotLines, footprint);
    hira_assert(footprint > 0 && hot > 0);
    streamPtr = rng.next() % footprint;
}

TraceInst
TraceGen::drawAccess()
{
    TraceInst inst;
    inst.isMem = true;
    inst.isWrite = rng.chanceBelow(writeThreshold);
    std::uint64_t kind = rng.uniformBits();
    if (kind < hotThreshold) {
        // Cache-resident hot set (private caches / LLC absorb these).
        inst.addr = lineAddr(rng.below(hot));
    } else if (kind < streamThreshold) {
        // Sequential stream: consecutive lines, high row-buffer locality.
        if (++streamPtr == footprint)
            streamPtr = 0;
        inst.addr = lineAddr(streamPtr);
    } else {
        // Irregular access over the full footprint.
        inst.addr = lineAddr(rng.below(footprint));
    }
    return inst;
}

TraceInst
TraceGen::next()
{
    // Every draw compares integers against the constructor's thresholds
    // (Rng::chanceThreshold), consuming the same draws, with the same
    // outcomes, as comparing uniform() against the profile's fractions.
    if (!rng.chanceBelow(memThreshold))
        return TraceInst{};
    return drawAccess();
}

TraceRecord
TraceGen::nextRecord()
{
    TraceRecord rec;
    while (rec.nonMem < kMaxRun) {
        if (rng.chanceBelow(memThreshold)) {
            rec.access = drawAccess();
            return rec;
        }
        ++rec.nonMem;
    }
    return rec;
}

} // namespace hira
