/**
 * @file
 * The Refresh Table (Section 5, component 3): queued periodic and
 * preventive refresh requests with their deadline, bank, and type.
 *
 * Sized per the paper's §6 analysis: with tRefSlack = 4 tRC a rank can
 * hold at most 4 periodic + 64 preventive requests (68 entries). The
 * table is small, so linear scans (which is also what the pipelined
 * hardware traversal of §6.2 does) are used throughout.
 */

#ifndef HIRA_CORE_REFRESH_TABLE_HH
#define HIRA_CORE_REFRESH_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hira {

/** Refresh request type (2-bit field in hardware). */
enum class RefreshType : std::uint8_t
{
    Periodic,
    Preventive,
};

/** One Refresh Table entry. */
struct RefreshEntry
{
    std::uint64_t id = 0;   //!< unique handle for commit/remove
    Cycle deadline = 0;
    std::size_t bank = 0;   //!< flat bank index within the channel
    RefreshType type = RefreshType::Periodic;
};

/**
 * One rank's refresh request table. Every entry is in the same rank, so
 * the scans compare banks only.
 */
class RefreshTable
{
  public:
    explicit RefreshTable(std::size_t capacity) : cap(capacity) {}

    /**
     * Insert a request. Returns false when the insert exceeds the
     * hardware capacity (the entry is still stored; the caller should
     * force-drain — a correctly provisioned configuration never hits
     * this, and the overflow counter is exposed for tests).
     */
    bool
    insert(Cycle deadline, std::size_t bank, RefreshType type)
    {
        RefreshEntry e;
        e.id = nextId++;
        e.deadline = deadline;
        e.bank = bank;
        e.type = type;
        entries.push_back(e);
        if (entries.size() > cap) {
            ++overflows_;
            return false;
        }
        return true;
    }

    /** Earliest-deadline entry for one bank, or nullptr. */
    const RefreshEntry *
    earliestForBank(std::size_t bank) const
    {
        const RefreshEntry *best = nullptr;
        for (const RefreshEntry &e : entries) {
            if (e.bank != bank)
                continue;
            if (best == nullptr || e.deadline < best->deadline)
                best = &e;
        }
        return best;
    }

    /**
     * A second entry in the same bank as @p first (for refresh-refresh
     * pairing), earliest deadline first; nullptr if none.
     */
    const RefreshEntry *
    pairCandidate(const RefreshEntry &first) const
    {
        const RefreshEntry *best = nullptr;
        for (const RefreshEntry &e : entries) {
            if (e.id == first.id || e.bank != first.bank)
                continue;
            if (best == nullptr || e.deadline < best->deadline)
                best = &e;
        }
        return best;
    }

    /** Remove an entry by id; returns false if not present. */
    bool
    remove(std::uint64_t id)
    {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].id == id) {
                entries[i] = entries.back();
                entries.pop_back();
                return true;
            }
        }
        return false;
    }

    std::size_t size() const { return entries.size(); }
    std::size_t capacity() const { return cap; }
    bool empty() const { return entries.empty(); }
    std::uint64_t overflows() const { return overflows_; }
    const std::vector<RefreshEntry> &all() const { return entries; }

  private:
    std::size_t cap;
    std::vector<RefreshEntry> entries;
    std::uint64_t nextId = 1;
    std::uint64_t overflows_ = 0;
};

} // namespace hira

#endif // HIRA_CORE_REFRESH_TABLE_HH
