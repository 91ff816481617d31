#include "sim/cache.hh"

#include "common/logging.hh"

namespace hira {

Llc::Llc(const LlcConfig &config, SendFn send_fn, NotifyFn notify_fn)
    : cfg(config), send(std::move(send_fn)), notify(std::move(notify_fn))
{
    hira_assert(cfg.ways > 0);
    if (cfg.lineBytes <= 0 || (cfg.lineBytes & (cfg.lineBytes - 1)) != 0)
        fatal("LLC lineBytes = %d is not a power of two", cfg.lineBytes);
    lineShift = __builtin_ctz(static_cast<unsigned>(cfg.lineBytes));
    sets = cfg.sizeBytes /
           (static_cast<std::uint64_t>(cfg.ways) *
            static_cast<std::uint64_t>(cfg.lineBytes));
    hira_assert(sets > 0 && (sets & (sets - 1)) == 0);
    lines.assign(sets * static_cast<std::size_t>(cfg.ways), Line{});
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

Llc::Line *
Llc::lookup(Addr line)
{
    std::size_t base = setOf(line) * static_cast<std::size_t>(cfg.ways);
    for (int w = 0; w < cfg.ways; ++w) {
        Line &l = lines[base + static_cast<std::size_t>(w)];
        if (l.valid && l.tag == line)
            return &l;
    }
    return nullptr;
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
    if (Line *l = lookup(line)) {
        l->lru = ++lruClock;
        l->dirty = l->dirty || is_write;
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
    std::size_t base = setOf(line) * static_cast<std::size_t>(cfg.ways);
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
    hira_assert(victim != nullptr);
    if (victim->valid && victim->dirty) {
        // Dirty eviction: write the line back to memory.
        Request wb;
        wb.type = MemType::Write;
        wb.addr = victim->tag * static_cast<Addr>(cfg.lineBytes);
        wb.coreId = -1;
        wb.tag = 0;
        wb.arrival = mem_now;
        // Writebacks must never be dropped: bypass the outbound cap (the
        // queue drains through tick()).
        if (!(outbound.empty() && send(wb)))
            outbound.push_back(wb);
        ++writebacks;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = line;
    victim->lru = ++lruClock;
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
