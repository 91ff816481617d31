#include "sim/sweep_plan.hh"

#include <climits>
#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/scheme_registry.hh"

namespace hira {

namespace {

[[noreturn]] void
planError(const std::string &where, const char *what)
{
    fatal("%s: invalid sweep plan: %s", where.c_str(), what);
}

double
numberField(const JsonValue &v, const char *key,
            const std::string &where)
{
    if (v.kind != JsonValue::Kind::Number)
        fatal("%s: invalid sweep plan: '%s' must be a number",
              where.c_str(), key);
    return v.number;
}

/** A whole number in [lo, hi]; checked before any conversion. */
double
wholeField(const JsonValue &v, const char *key, double lo, double hi,
           const std::string &where)
{
    double d = numberField(v, key, where);
    if (d != std::floor(d)) {
        fatal("%s: invalid sweep plan: '%s' must be an integer",
              where.c_str(), key);
    }
    if (!(d >= lo && d <= hi)) {
        fatal("%s: invalid sweep plan: '%s' = %g is outside [%.0f, %.0f]",
              where.c_str(), key, d, lo, hi);
    }
    return d;
}

int
intField(const JsonValue &v, const char *key, const std::string &where,
         int lo = INT_MIN)
{
    return static_cast<int>(wholeField(v, key, lo, INT_MAX, where));
}

/**
 * Warmup / measured cycles: a whole, non-negative cycle count. The
 * bound stays below 2^63 so the int64 conversion is defined.
 */
std::int64_t
cyclesField(const JsonValue &v, const char *key, const std::string &where)
{
    return static_cast<std::int64_t>(
        wholeField(v, key, 0.0, 9.0e18, where));
}

bool
boolField(const JsonValue &v, const char *key, const std::string &where)
{
    if (v.kind != JsonValue::Kind::Bool)
        fatal("%s: invalid sweep plan: '%s' must be a boolean",
              where.c_str(), key);
    return v.boolean;
}

GeomSpec
geomFromJson(const JsonValue &v, const std::string &where)
{
    if (v.kind != JsonValue::Kind::Object)
        planError(where, "'geom' must be an object");
    GeomSpec geom;
    for (const auto &kv : v.object) {
        const std::string &key = kv.first;
        if (key == "capacity_gb") {
            geom.capacityGb = numberField(kv.second, "capacity_gb", where);
            if (!(std::isfinite(geom.capacityGb) && geom.capacityGb > 0.0))
                planError(where, "'capacity_gb' must be positive");
        } else if (key == "channels") {
            geom.channels = intField(kv.second, "channels", where, 1);
        } else if (key == "ranks") {
            geom.ranks = intField(kv.second, "ranks", where, 1);
        } else if (key == "standard") {
            if (kv.second.kind != JsonValue::Kind::String) {
                planError(where, "'standard' must be a string");
            }
            geom.standard = kv.second.string;
        } else {
            fatal("%s: invalid sweep plan: unknown geom key '%s'",
                  where.c_str(), key.c_str());
        }
    }
    return geom;
}

SchemeSpec
schemeFromJson(const JsonValue &v, const std::string &where)
{
    if (v.kind != JsonValue::Kind::Object)
        planError(where, "'scheme' must be an object");
    const JsonValue *name = v.get("name");
    if (name == nullptr || name->kind != JsonValue::Kind::String)
        planError(where, "'scheme' needs a string 'name'");
    // Unknown names are fatal inside schemeSpecByName, listing the
    // registry — same contract as sweep specs everywhere else.
    SchemeSpec spec = schemeSpecByName(name->string);
    for (const auto &kv : v.object) {
        const std::string &key = kv.first;
        const JsonValue &val = kv.second;
        if (key == "name") {
            continue;
        } else if (key == "slack_n") {
            spec.slackN = intField(val, "slack_n", where);
        } else if (key == "para_enabled") {
            spec.paraEnabled = boolField(val, "para_enabled", where);
        } else if (key == "nrh") {
            spec.nrh = numberField(val, "nrh", where);
        } else if (key == "preventive_via_hira") {
            spec.preventiveViaHira =
                boolField(val, "preventive_via_hira", where);
        } else if (key == "access_pairing") {
            spec.accessPairing = boolField(val, "access_pairing", where);
        } else if (key == "refresh_pairing") {
            spec.refreshPairing = boolField(val, "refresh_pairing", where);
        } else if (key == "pull_ahead") {
            spec.pullAhead = boolField(val, "pull_ahead", where);
        } else if (key == "spt_isolation") {
            spec.sptIsolation = numberField(val, "spt_isolation", where);
        } else if (key == "raaimt") {
            spec.raaimt = intField(val, "raaimt", where);
        } else if (key == "prac_threshold") {
            spec.pracThreshold = intField(val, "prac_threshold", where);
        } else if (key == "tracker_size") {
            spec.trackerSize = intField(val, "tracker_size", where);
        } else {
            fatal("%s: invalid sweep plan: unknown scheme key '%s'",
                  where.c_str(), key.c_str());
        }
    }
    spec.validate(where);
    return spec;
}

} // namespace

SweepPlan
sweepPlanFromJson(const std::string &text, const std::string &where)
{
    JsonValue root = parseJson(text, where);
    if (root.kind != JsonValue::Kind::Object)
        planError(where, "top level must be an object");
    SweepPlan plan;
    for (const auto &kv : root.object) {
        const std::string &key = kv.first;
        const JsonValue &val = kv.second;
        if (key == "mixes") {
            if (val.kind != JsonValue::Kind::Array)
                planError(where, "'mixes' must be an array of arrays");
            for (const JsonValue &mix : val.array) {
                if (mix.kind != JsonValue::Kind::Array || mix.array.empty())
                    planError(where, "each mix must be a non-empty array");
                WorkloadMix m;
                for (const JsonValue &spec : mix.array) {
                    if (spec.kind != JsonValue::Kind::String) {
                        planError(where,
                                  "mix entries must be workload-spec "
                                  "strings");
                    }
                    m.push_back(spec.string);
                }
                plan.mixes.push_back(std::move(m));
            }
        } else if (key == "warmup") {
            plan.warmup = cyclesField(val, "warmup", where);
        } else if (key == "cycles") {
            plan.cycles = cyclesField(val, "cycles", where);
        } else if (key == "points") {
            if (val.kind != JsonValue::Kind::Array)
                planError(where, "'points' must be an array");
            for (const JsonValue &pv : val.array) {
                if (pv.kind != JsonValue::Kind::Object)
                    planError(where, "each point must be an object");
                SweepPoint p;
                const JsonValue *g = pv.get("geom");
                p.geom = g != nullptr ? geomFromJson(*g, where)
                                      : GeomSpec{};
                const JsonValue *s = pv.get("scheme");
                if (s == nullptr)
                    planError(where, "each point needs a 'scheme'");
                p.scheme = schemeFromJson(*s, where);
                plan.points.push_back(std::move(p));
            }
        } else {
            fatal("%s: invalid sweep plan: unknown key '%s'",
                  where.c_str(), key.c_str());
        }
    }
    if (plan.points.empty())
        planError(where, "'points' is missing or empty");
    if (plan.mixes.empty())
        planError(where, "'mixes' is missing or empty");
    return plan;
}

} // namespace hira
