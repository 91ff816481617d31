/**
 * @file
 * Tests for the deterministic RNG layer: reproducibility, distributional
 * sanity, and the stateless per-entity hash randomness that the chip
 * variation model depends on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"
#include "sim/workloads.hh"

using namespace hira;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(99);
    std::uint64_t first = a.next();
    a.next();
    a.reseed(99);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(8);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform(3.0, 4.5);
        ASSERT_GE(u, 3.0);
        ASSERT_LT(u, 4.5);
    }
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange)
{
    Rng r(9);
    int counts[5] = {0};
    for (int i = 0; i < 50000; ++i)
        ++counts[r.below(5)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, RangeInclusive)
{
    Rng r(10);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 200; ++i) {
        std::int64_t v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

namespace {

/** uniform()'s value for the 53-bit draw @p k (the rng.hh contract). */
double
uniformOf(std::uint64_t k)
{
    return static_cast<double>(k) * 0x1.0p-53;
}

/**
 * chanceBelow(chanceThreshold(p)) must equal chance(p): on the draws at
 * and next to the threshold, at both ends of the draw range, and along
 * a shared random stream, consuming one draw per trial.
 */
void
expectThresholdMatchesChance(double p, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "p = " << std::hexfloat << p);
    const std::uint64_t top = std::uint64_t(1) << 53;
    const std::uint64_t k = Rng::chanceThreshold(p);
    ASSERT_LE(k, top);
    const std::uint64_t draws[] = {0, k - 2, k - 1, k, k + 1, top - 1};
    for (std::uint64_t d : draws) {
        if (d >= top)
            continue; // k - 2 and k - 1 wrap when k < 2
        EXPECT_EQ(uniformOf(d) < p, d < k) << "draw " << d;
    }
    Rng a(seed), b(seed);
    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(a.chance(p), b.chanceBelow(k)) << "trial " << i;
    EXPECT_EQ(a.next(), b.next());
}

} // namespace

TEST(Rng, ChanceThresholdMatchesChance)
{
    const double edges[] = {0.0,
                            0x1.0p-53,
                            0.5,
                            1.0 - 0x1.0p-53,
                            1.0,
                            // Out of range: chance() is constant there.
                            -0.0,
                            -1.0,
                            0x1.0p-1074,
                            1.5,
                            HUGE_VAL,
                            -HUGE_VAL,
                            std::nan("")};
    std::uint64_t seed = 1;
    for (double p : edges)
        expectThresholdMatchesChance(p, seed++);
    EXPECT_EQ(Rng::chanceThreshold(0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(Rng::chanceThreshold(0.5), std::uint64_t(1) << 52);
    EXPECT_EQ(Rng::chanceThreshold(1.0), std::uint64_t(1) << 53);

    // Every probability the synthetic pool feeds TraceGen, including
    // the cumulative hot + stream bound of its access-kind draw.
    for (const BenchmarkProfile &prof : benchmarkPool()) {
        SCOPED_TRACE(prof.name);
        const double h = prof.hotFraction, st = prof.streamFraction;
        for (double p : {prof.memPerInstr, prof.writeFraction, h, st,
                         h + st * (1.0 - h)})
            expectThresholdMatchesChance(p, seed++);
    }

    // Random probabilities: on the 2^-53 grid (where the threshold is
    // exact and the boundary draw must fail) and off it.
    Rng r(0x7e57);
    for (int i = 0; i < 10000; ++i) {
        double p = (i % 2 == 0) ? r.uniform() : r.uniform() * r.uniform();
        expectThresholdMatchesChance(p, seed++);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(12);
    double sum = 0.0, ss = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian();
        sum += g;
        ss += g * g;
    }
    double mean = sum / n;
    double var = ss / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(HashRandom, DeterministicAndOrderIndependent)
{
    double a = hashUniform(42, 7, 9, 3);
    double b = hashUniform(42, 7, 9, 3);
    EXPECT_EQ(a, b);
    EXPECT_NE(hashUniform(42, 7, 9, 3), hashUniform(42, 7, 9, 4));
    EXPECT_NE(hashUniform(42, 7, 9, 3), hashUniform(43, 7, 9, 3));
}

TEST(HashRandom, UniformCoversInterval)
{
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = hashUniform(5, static_cast<std::uint64_t>(i));
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(HashRandom, GaussianMoments)
{
    double sum = 0.0, ss = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = hashGaussian(77, static_cast<std::uint64_t>(i));
        sum += g;
        ss += g * g;
    }
    double mean = sum / n;
    double var = ss / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(HashRandom, StringHashStable)
{
    EXPECT_EQ(hashString("C0"), hashString("C0"));
    EXPECT_NE(hashString("C0"), hashString("C1"));
}

TEST(Rng, GoldenStreamPinsGeneratorContract)
{
    // The exact output stream is part of the library contract (see the
    // rng.hh header comment): results published from one platform must
    // reproduce bit-for-bit on any other. These values pin the seeding
    // path (splitmix64 expansion) and the xoshiro256** step function.
    Rng r(0x5eedULL);
    const std::uint64_t expect[4] = {
        0x7e62888939af659eULL,
        0x8f1b51a14c1c7c9bULL,
        0x75b1b6aec14e96dcULL,
        0x46defa1e990b2e9bULL,
    };
    for (std::uint64_t e : expect)
        ASSERT_EQ(r.next(), e);

    // The default-constructed generator uses seed 0x5eed.
    Rng d;
    EXPECT_EQ(d.next(), expect[0]);
}

TEST(Rng, GoldenDerivedValuesPinHashesAndUniform)
{
    EXPECT_EQ(splitmix64(42), 0xbdd732262feb6e95ULL);
    EXPECT_EQ(hashCombine(1, 2), 0xa3c4449e2626b033ULL);
    EXPECT_EQ(hashString("hira"), 0xd2438738b1b00752ULL);
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-for-bit, and
    // these literals are exactly representable outputs of the integer
    // pipeline, so a 1-ULP divergence must fail.
    EXPECT_EQ(hashUniform(7, 1, 2, 3), 0.79741486793058791);

    Rng u(123);
    EXPECT_EQ(u.uniform(), 0.087087627748164365);
    EXPECT_EQ(u.uniform(), 0.33945713666267274);
}

TEST(HashRandom, SplitmixAvalanche)
{
    // Flipping one input bit should flip roughly half the output bits.
    int total = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        std::uint64_t d = splitmix64(i) ^ splitmix64(i ^ 1);
        total += __builtin_popcountll(d);
    }
    EXPECT_NEAR(total / 256.0, 32.0, 4.0);
}
