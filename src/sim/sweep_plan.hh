/**
 * @file
 * Serialized sweep plans: the SweepPoint/mix vocabulary drivers hand to
 * SweepRunner::runPoints(), as a JSON file format: the input of
 * tools/hira_sweep.cc, which runs a plan (or one --slice of it) against
 * a shared result cache, so a plan always means the same points in
 * every process.
 *
 * Schema (all knobs optional except geometry/scheme name):
 *
 *     {
 *       "mixes":  [["spec", ...], ...],   // workload specs per mix
 *       "warmup": 2000,                   // cycles (default: knobs)
 *       "cycles": 20000,
 *       "points": [
 *         {"geom":   {"capacity_gb": 8.0, "channels": 1, "ranks": 1,
 *                     "standard": "ddr4_2400"},
 *          "scheme": {"name": "hira", "slack_n": 4, ...}}
 *       ]
 *     }
 *
 * "scheme" starts from schemeSpecByName(name) — unknown names are
 * fatal with the registry listing — and applies any of the SchemeSpec
 * override keys (slack_n, ref_postpone, para_enabled, nrh,
 * preventive_via_hira, access_pairing, refresh_pairing, pull_ahead,
 * spt_isolation, raaimt, prac_threshold, tracker_size). A combination
 * SchemeSpec::validate rejects (immediate PARA on "hira", PARA(HiRA)
 * on anything but "baseline" or "hira") is fatal.
 *
 * Plans are user-written, so numbers are range-checked before any
 * conversion: integer fields must be whole numbers that fit an int,
 * warmup/cycles whole non-negative numbers of cycles (omitted means
 * the ambient knob default), channels/ranks at least 1, and
 * capacity_gb positive. Anything else is fatal.
 */

#ifndef HIRA_SIM_SWEEP_PLAN_HH
#define HIRA_SIM_SWEEP_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace hira {

/** One serializable unit of sweep work. */
struct SweepPlan
{
    std::vector<WorkloadMix> mixes;
    std::int64_t warmup = -1; //!< < 0: take the ambient knob default
    std::int64_t cycles = -1;
    std::vector<SweepPoint> points;
};

/**
 * Parse @p text as a sweep plan. Malformed JSON, unknown scheme names,
 * structurally-invalid plans (no points, no mixes, empty mix), and
 * out-of-range numbers are fatal, naming @p where.
 */
SweepPlan sweepPlanFromJson(const std::string &text,
                            const std::string &where);

} // namespace hira

#endif // HIRA_SIM_SWEEP_PLAN_HH
