#include "sim/cache.hh"

#include "common/logging.hh"

namespace hira {

Llc::Llc(const LlcConfig &config, SendFn send_fn, NotifyFn notify_fn)
    : cfg(config), send(std::move(send_fn)), notify(std::move(notify_fn))
{
    if (cfg.ways <= 0 || cfg.ways > kInvalidRank)
        fatal("LLC ways = %d is not in [1, %d]", cfg.ways, kInvalidRank);
    if (cfg.lineBytes < 4 || (cfg.lineBytes & (cfg.lineBytes - 1)) != 0)
        fatal("LLC lineBytes = %d is not a power of two of at least 4",
              cfg.lineBytes);
    lineShift = __builtin_ctz(static_cast<unsigned>(cfg.lineBytes));
    ways = static_cast<std::size_t>(cfg.ways);
    sets = cfg.sizeBytes / (ways * static_cast<std::uint64_t>(cfg.lineBytes));
    hira_assert(sets > 0 && (sets & (sets - 1)) == 0);
    // Plain fills: a per-element division here costs more than the
    // rest of building a System.
    tags.assign(sets * ways, 0);
    ranks.assign(sets * ways, kInvalidRank);
}

Addr
Llc::lineOf(Addr addr) const
{
    return addr >> lineShift;
}

std::size_t
Llc::setOf(Addr line) const
{
    return static_cast<std::size_t>(line) & (sets - 1);
}

int
Llc::lookup(std::size_t base, Addr line) const
{
    const std::uint64_t want = line << 2 | kValid;
    for (std::size_t w = 0; w < ways; ++w) {
        if ((tags[base + w] & ~kDirty) == want)
            return static_cast<int>(w);
    }
    return -1;
}

void
Llc::touch(std::size_t base, int way)
{
    // Every way more recent than @p way ages by one; invalid ways
    // (kInvalidRank) are never more recent, so they keep their rank.
    std::uint8_t *r = &ranks[base];
    const std::uint8_t old = r[way];
    for (std::size_t w = 0; w < ways; ++w)
        r[w] = static_cast<std::uint8_t>(r[w] + (r[w] < old ? 1 : 0));
    r[way] = 0;
}

bool
Llc::sendOrQueue(const Request &req)
{
    if (outbound.empty() && send(req))
        return true;
    if (outbound.size() >= cfg.outboundCap)
        return false;
    outbound.push_back(req);
    return true;
}

void
Llc::tick(Cycle)
{
    while (!outbound.empty()) {
        if (!send(outbound.front()))
            return;
        outbound.pop_front();
        ++capGen; // an outbound slot freed; Blocked verdicts may change
    }
}

LlcResult
Llc::access(bool is_write, Addr addr, int core_id, std::uint64_t tag,
            Cycle mem_now)
{
    Addr line = lineOf(addr);
    std::size_t base = setOf(line) * ways;
    int way = lookup(base, line);
    if (way >= 0) {
        if (is_write)
            tags[base + static_cast<std::size_t>(way)] |= kDirty;
        touch(base, way);
        ++hits;
        return LlcResult::Hit;
    }

    // Merge into an outstanding miss to the same line.
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

    // Allocate an MSHR and fetch the line.
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
Llc::install(Addr line, bool dirty, Cycle mem_now)
{
    // The victim is the first invalid way, else the least recent one
    // (rank ways - 1): the choice a per-line LRU stamp would make.
    std::size_t base = setOf(line) * ways;
    std::size_t victim = 0;
    while (victim < ways && tags[base + victim] != 0)
        ++victim;
    if (victim == ways) {
        victim = 0;
        while (victim < ways && ranks[base + victim] != ways - 1)
            ++victim;
        hira_assert(victim < ways);
        std::uint64_t old = tags[base + victim];
        if (old & kDirty) {
            // Dirty eviction: write the line back to memory.
            Request wb;
            wb.type = MemType::Write;
            wb.addr = (old >> 2) * static_cast<Addr>(cfg.lineBytes);
            wb.coreId = -1;
            wb.tag = 0;
            wb.arrival = mem_now;
            // Writebacks must never be dropped: bypass the outbound cap
            // (the queue drains through tick()).
            if (!(outbound.empty() && send(wb)))
                outbound.push_back(wb);
            ++writebacks;
        }
    }
    tags[base + victim] = line << 2 | (dirty ? kDirty : 0) | kValid;
    touch(base, static_cast<int>(victim));
}

void
Llc::onMemCompletion(std::uint64_t mem_tag, Cycle mem_now)
{
    auto it = mshrs.find(mem_tag);
    hira_assert(it != mshrs.end());
    Mshr m = std::move(it->second);
    mshrs.erase(it);
    mshrByLine.erase(m.lineAddr);
    install(m.lineAddr, m.writeIntent, mem_now);
    // An MSHR freed and a line installed: an access that was Blocked
    // (or missing) before can now succeed, so bump the generation.
    ++capGen;
    for (const Waiter &w : m.waiters)
        notify(w.coreId, w.tag, mem_now);
}

} // namespace hira
