/**
 * @file
 * Name-keyed refresh-scheme registry.
 *
 * One entry per SchemeKind ties together everything the sweep layer
 * used to hand-enumerate: the stable registry name (bench sections,
 * sweep specs), the scheme-object factory System::makeScheme dispatches
 * through, the SchemeSpec -> SystemConfig wiring makeSystemConfig
 * dispatches through, the human label base, and the scheme's seed-key
 * contribution (every behavior-affecting knob the base SchemeSpec key
 * does not already cover). Adding a scheme means one entry here — the
 * sweep, label, seeding, and diagnostics layers pick it up from the
 * registry.
 *
 * Lookups by unknown name are fatal and list the known names,
 * mirroring benchmarkByName(): a typo in a sweep spec or bench driver
 * must never silently fall back to a default scheme.
 */

#ifndef HIRA_SIM_SCHEME_REGISTRY_HH
#define HIRA_SIM_SCHEME_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace hira {

/** One registry entry: everything keyed by a SchemeKind. */
struct SchemeRegistryEntry
{
    const char *name;  //!< registry key ("baseline", "rfm", ...)
    SchemeKind kind;
    /** Scheme-object factory (System::makeScheme dispatches here). */
    std::unique_ptr<RefreshScheme> (*make)(const SystemConfig &cfg);
    /**
     * SchemeSpec -> SystemConfig wiring: set cfg.scheme and the
     * scheme-specific config block. cfg.tp/geom/seed are already set.
     */
    void (*configure)(SystemConfig &cfg, const SchemeSpec &spec,
                      std::uint64_t seed);
    /** Human label base ("HiRA-4"); SchemeSpec::label() adds +PARA. */
    std::string (*labelBase)(const SchemeSpec &spec);
    /**
     * Scheme-specific seed-key fields appended to the base
     * SchemeSpec::seedKey() ("" when the base key already covers the
     * scheme, which keeps the pre-registry golden seeds valid).
     */
    std::string (*seedKeySuffix)(const SchemeSpec &spec);
};

/** All registered schemes, in SchemeKind order. */
const std::vector<SchemeRegistryEntry> &schemeRegistry();

/** Comma-joined registry names, for diagnostics and docs. */
std::string knownSchemeNames();

/** Entry for a SchemeKind; panics on an unregistered kind. */
const SchemeRegistryEntry &schemeEntryByKind(SchemeKind kind);

/**
 * Entry by registry name. Unknown names are fatal and print the
 * known-name list.
 */
const SchemeRegistryEntry &schemeEntryByName(const std::string &name);

/** A default SchemeSpec of the named scheme (sweep-spec parsing). */
SchemeSpec schemeSpecByName(const std::string &name);

} // namespace hira

#endif // HIRA_SIM_SCHEME_REGISTRY_HH
