/**
 * @file
 * Regression tests for the HIRA_JSON bench artifact writer
 * (bench/bench_util.hh): JSON has no inf/nan literals, so non-finite
 * series values must be emitted as null — a bare `inf` token breaks
 * every downstream parser.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "bench_util.hh"

using namespace hira;
using namespace hira::benchutil;

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(detail::jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(detail::jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(detail::jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(detail::jsonNumber(1.5), "1.5");
    EXPECT_EQ(detail::jsonNumber(0.0), "0");
}

TEST(JsonWriter, ArtifactWithNonFiniteSeriesStaysValidJson)
{
    std::string templ = "/tmp/hira_json_writer.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    std::string dir = buf.data();
    ::setenv("HIRA_JSON", dir.c_str(), 1);

    banner("json writer regression", "none");
    knobsLine(BenchKnobs{});
    seriesHeader("series", {"a", "b", "c"});
    seriesRow("degenerate",
              {1.5, std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::quiet_NaN()});
    note("contains non-finite values on purpose");
    footer();
    ::unsetenv("HIRA_JSON");

    std::string path = dir + "/BENCH_" + detail::driverName() + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();

    // The degenerate values land as null, never as bare inf/nan.
    EXPECT_NE(json.find("[1.5, null, null]"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);

    ::unlink(path.c_str());
    ::rmdir(dir.c_str());
}

TEST(JsonWriter, PointIdsTellApartPointsSharingALabel)
{
    // Two PARA points that differ only in NRH share the label
    // "Baseline+PARA @ c8-ch1-rk1"; their artifact ids must not.
    SweepPoint a{GeomSpec{}, paraScheme(1024.0, -1)};
    SweepPoint b{GeomSpec{}, paraScheme(64.0, -1)};
    ASSERT_EQ(a.scheme.label(), b.scheme.label());
    EXPECT_NE(pointId(a), pointId(b));
    EXPECT_EQ(pointId(a), pointId(SweepPoint{GeomSpec{}, a.scheme}));

    // Both artifact blocks record the id next to the label.
    recordPointTiming("para", pointId(b), 0.5, 1000);
    recordPointStats("para", pointId(b), RefreshStats{}, MetricsSnapshot{});
    EXPECT_EQ(detail::capture().timing.back().point, pointId(b));
    EXPECT_EQ(detail::capture().points.back().point, pointId(b));
}
