#include "sim/scheme_registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "security/para_analysis.hh"

namespace hira {

namespace {

// ----- per-entry hooks ------------------------------------------------

std::unique_ptr<RefreshScheme>
makeNoRefresh(const SystemConfig &)
{
    return std::make_unique<NoRefresh>();
}

std::unique_ptr<RefreshScheme>
makeBaseline(const SystemConfig &)
{
    return std::make_unique<BaselineRefresh>();
}

std::unique_ptr<RefreshScheme>
makeHiraMc(const SystemConfig &cfg)
{
    return std::make_unique<HiraMc>(cfg.hira);
}

std::unique_ptr<RefreshScheme>
makeRfm(const SystemConfig &cfg)
{
    return std::make_unique<RfmRefresh>(cfg.rfm);
}

std::unique_ptr<RefreshScheme>
makePrac(const SystemConfig &cfg)
{
    return std::make_unique<PracRefresh>(cfg.prac);
}

std::unique_ptr<RefreshScheme>
makeGraphene(const SystemConfig &cfg)
{
    return std::make_unique<GrapheneTrr>(cfg.graphene);
}

void
configurePlain(SystemConfig &cfg, const SchemeSpec &spec, std::uint64_t)
{
    cfg.scheme = spec.kind;
}

void
configureHira(SystemConfig &cfg, const SchemeSpec &spec, std::uint64_t seed)
{
    // Selected for spec.kind == HiraMc AND for Baseline promoted by
    // paraEnabled && preventiveViaHira (PreventiveRC needs the HiRA-MC
    // machinery even when periodic refresh stays on REF; other kinds
    // are rejected by SchemeSpec::validate).
    cfg.scheme = SchemeKind::HiraMc;
    cfg.hira.slackN = spec.slackN;
    cfg.hira.periodicViaHira = spec.kind == SchemeKind::HiraMc;
    cfg.hira.enableAccessPairing = spec.accessPairing;
    cfg.hira.enableRefreshPairing = spec.refreshPairing;
    cfg.hira.enablePullAhead = spec.pullAhead;
    cfg.hira.sptIsolation = spec.sptIsolation;
    cfg.hira.seed = hashCombine(seed, 0x517a);
    if (spec.paraEnabled && spec.preventiveViaHira) {
        cfg.hira.preventive.enabled = true;
        // Slack-aware threshold (Section 9.1 step 4).
        double slack_ns = spec.slackN * cfg.tp.tRC;
        cfg.hira.preventive.pth =
            solvePth(spec.nrh, slackActivations(slack_ns));
        cfg.hira.preventive.seed = hashCombine(seed, 0x9a1);
    }
}

void
configureRfm(SystemConfig &cfg, const SchemeSpec &spec, std::uint64_t)
{
    cfg.scheme = SchemeKind::Rfm;
    cfg.rfm.raaimt = spec.raaimt;
}

void
configurePrac(SystemConfig &cfg, const SchemeSpec &spec, std::uint64_t)
{
    cfg.scheme = SchemeKind::Prac;
    cfg.prac.threshold = spec.pracThreshold;
    cfg.prac.slackRc = spec.slackN;
}

void
configureGraphene(SystemConfig &cfg, const SchemeSpec &spec, std::uint64_t)
{
    cfg.scheme = SchemeKind::Graphene;
    cfg.graphene.trackerSize = spec.trackerSize;
    // Graphene sizing rule: trigger well below the RowHammer threshold
    // so both neighbors are refreshed before nrh activations accrue.
    cfg.graphene.threshold =
        std::max(1, static_cast<int>(spec.nrh / 4.0));
}

std::string
labelNoRefresh(const SchemeSpec &)
{
    return "NoRefresh";
}

std::string
labelBaseline(const SchemeSpec &)
{
    return "Baseline";
}

std::string
labelHira(const SchemeSpec &spec)
{
    return strprintf("HiRA-%d", spec.slackN);
}

std::string
labelRfm(const SchemeSpec &)
{
    return "RFM";
}

std::string
labelPrac(const SchemeSpec &)
{
    return "PRAC";
}

std::string
labelGraphene(const SchemeSpec &)
{
    return "Graphene-TRR";
}

std::string
suffixNone(const SchemeSpec &)
{
    // The base seedKey() already covers these schemes' knobs; an empty
    // suffix keeps the pre-registry golden seeds valid
    // (tests/sim/test_experiment.cc SweepRunSeedGoldenValues).
    return "";
}

std::string
suffixRfm(const SchemeSpec &spec)
{
    return strprintf("-raaimt%d", spec.raaimt);
}

std::string
suffixPrac(const SchemeSpec &spec)
{
    return strprintf("-pth%d", spec.pracThreshold);
}

std::string
suffixGraphene(const SchemeSpec &spec)
{
    return strprintf("-trk%d", spec.trackerSize);
}

} // namespace

const std::vector<SchemeRegistryEntry> &
schemeRegistry()
{
    static const std::vector<SchemeRegistryEntry> registry = {
        {"norefresh", SchemeKind::NoRefresh, makeNoRefresh,
         configurePlain, labelNoRefresh, suffixNone},
        {"baseline", SchemeKind::Baseline, makeBaseline, configurePlain,
         labelBaseline, suffixNone},
        {"hira", SchemeKind::HiraMc, makeHiraMc, configureHira, labelHira,
         suffixNone},
        {"rfm", SchemeKind::Rfm, makeRfm, configureRfm, labelRfm,
         suffixRfm},
        {"prac", SchemeKind::Prac, makePrac, configurePrac, labelPrac,
         suffixPrac},
        {"graphene", SchemeKind::Graphene, makeGraphene,
         configureGraphene, labelGraphene, suffixGraphene},
    };
    return registry;
}

std::string
knownSchemeNames()
{
    std::string names;
    for (const SchemeRegistryEntry &e : schemeRegistry())
        names += std::string(names.empty() ? "" : ", ") + e.name;
    return names;
}

const SchemeRegistryEntry &
schemeEntryByKind(SchemeKind kind)
{
    for (const SchemeRegistryEntry &e : schemeRegistry()) {
        if (e.kind == kind)
            return e;
    }
    panic("SchemeKind %d is outside the scheme registry "
          "(sim/scheme_registry.cc)",
          static_cast<int>(kind));
}

const SchemeRegistryEntry &
schemeEntryByName(const std::string &name)
{
    for (const SchemeRegistryEntry &e : schemeRegistry()) {
        if (name == e.name)
            return e;
    }
    fatal("unknown refresh scheme '%s'; the registry has: %s "
          "(sim/scheme_registry.cc)",
          name.c_str(), knownSchemeNames().c_str());
}

SchemeSpec
schemeSpecByName(const std::string &name)
{
    SchemeSpec spec;
    spec.kind = schemeEntryByName(name).kind;
    return spec;
}

} // namespace hira
