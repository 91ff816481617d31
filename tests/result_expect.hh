/**
 * @file
 * Field-by-field comparators for simulation results, shared by the
 * equivalence suites (engines, metrics levels, thread counts, standards,
 * the result cache). They loop over RefreshStats::forEachField and
 * ControllerStats::forEachField, so every counter is compared without
 * being named here, and a mismatch names the field that differs.
 */

#ifndef HIRA_TESTS_RESULT_EXPECT_HH
#define HIRA_TESTS_RESULT_EXPECT_HH

#include <gtest/gtest.h>

#include <vector>

#include "sim/experiment.hh"

namespace hira {

/** Every RefreshStats counter is equal. */
inline void
expectSameRefresh(const RefreshStats &a, const RefreshStats &b)
{
    RefreshStats::forEachField([&](const char *name, auto m) {
        EXPECT_EQ(a.*m, b.*m) << "refresh." << name;
    });
}

/** Every SystemResult field is bitwise equal. */
inline void
expectSameResult(const SystemResult &a, const SystemResult &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.avgReadLatencyCycles, b.avgReadLatencyCycles);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    ControllerStats::forEachField([&](const char *name, auto m) {
        EXPECT_EQ(a.controller.*m, b.controller.*m)
            << "controller." << name;
    });
    expectSameRefresh(a.refresh, b.refresh);
}

/**
 * Two runs of one plan produced the same model outputs point by point:
 * mean weighted speedup, simulated cycles and every refresh counter.
 */
inline void
expectSamePoints(const std::vector<PointResult> &a,
                 const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(a[i].meanWs, b[i].meanWs);
        EXPECT_EQ(a[i].simCycles, b[i].simCycles);
        expectSameRefresh(a[i].refresh, b[i].refresh);
    }
}

} // namespace hira

#endif // HIRA_TESTS_RESULT_EXPECT_HH
