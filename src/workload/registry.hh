/**
 * @file
 * Workload registry: resolves mix-entry specs to trace sources.
 *
 * A WorkloadMix entry is either a synthetic-pool benchmark name
 * ("mcf-like") or a scheme-prefixed spec ("file:/path/to.trace"), so
 * SystemConfig::mix, makeMixes, and SweepRunner work unchanged over
 * mixed synthetic/file workloads. Supported spec forms:
 *
 *   <name>                  synthetic-pool profile (src/sim/workloads.cc)
 *   file:<path>             on-disk trace, looping when shorter than
 *                           the run (text or binary, format sniffed)
 *   file:<path>?once        same, but running dry instead of looping
 *   corpus:<name>[?once]    trace <name> of the active corpus manifest
 *                           (HIRA_CORPUS; src/workload/corpus.hh)
 *
 * Every spec form gets its alone IPC the same way: measured per
 * geometry by SweepRunner::aloneIpc, with file-backed specs keyed in
 * the result cache by the trace file's path, size and mtime.
 *
 * New schemes (e.g., network-streamed traces) register a factory under
 * their prefix.
 */

#ifndef HIRA_WORKLOAD_REGISTRY_HH
#define HIRA_WORKLOAD_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workload/trace_source.hh"

namespace hira {

/** Resolves workload specs into per-core trace sources. */
class WorkloadRegistry
{
  public:
    /**
     * Factory for one spec scheme. @p arg is the spec with the
     * "<scheme>:" prefix stripped; @p seed / @p base / @p slice_bytes
     * describe the core the source feeds.
     */
    using Factory = std::function<std::unique_ptr<TraceSource>(
        const std::string &arg, std::uint64_t seed, Addr base,
        Addr slice_bytes)>;

    /** The process-wide registry ("file" scheme pre-registered). */
    static WorkloadRegistry &global();

    WorkloadRegistry();

    /**
     * Resolve @p spec into a source for a core with the given seed and
     * private address slice. Fatal on unknown names/schemes, listing
     * what is available.
     */
    std::unique_ptr<TraceSource> makeSource(const std::string &spec,
                                            std::uint64_t seed, Addr base,
                                            Addr slice_bytes) const;

    /**
     * True if @p spec names a pool profile or a registered scheme. No
     * side effects; scheme arguments are NOT validated (makeSource can
     * still be fatal on, e.g., a missing or malformed trace file).
     */
    bool known(const std::string &spec) const;

    /** Register a factory under a scheme prefix (overwrites). */
    void registerScheme(const std::string &scheme, Factory factory);

    /** Registered scheme prefixes, sorted. */
    std::vector<std::string> schemes() const;

    /** One-line summary of valid spec syntax (for error messages). */
    static std::string specSyntax();

  private:
    std::map<std::string, Factory> factories;
};

} // namespace hira

#endif // HIRA_WORKLOAD_REGISTRY_HH
