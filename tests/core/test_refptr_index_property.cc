/**
 * @file
 * Property test for the RefPtr Table's min-count index: over random
 * sequences of advance, resetWindow and peek (any subarray or isolated
 * from a partner), the indexed peek returns what a linear scan over the
 * window counts returns. Also checks the SPT partner bitmaps against
 * the isolation predicate they encode.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/refptr_table.hh"
#include "core/spt.hh"

using namespace hira;

namespace {

constexpr int kBanks = 4;
constexpr std::uint32_t kRowsPerSub = 8;

Geometry
geometryWith(std::uint32_t subarrays)
{
    Geometry geom;
    geom.subarraysPerBank = subarrays;
    geom.rowsPerBank = subarrays * kRowsPerSub;
    return geom;
}

/**
 * The unindexed pick: ascending scan, strict <, so the lowest-numbered
 * subarray wins a tie.
 */
RefPtrPick
oraclePeek(const RefPtrTable &rp, BankId bank, SubarrayId pair_with,
           const SubarrayPairsTable &spt)
{
    RefPtrPick best;
    std::uint64_t best_count = ~std::uint64_t(0);
    for (SubarrayId s = 0; s < spt.subarrays(); ++s) {
        if (pair_with != kAnySubarray && !spt.isolated(s, pair_with))
            continue;
        std::uint64_t c = rp.windowCount(bank, s);
        if (c < best_count) {
            best_count = c;
            best.subarray = s;
            best.row = s * spt.rowsPerSubarray() + rp.pointer(bank, s);
        }
    }
    return best;
}

/**
 * Pair count and hashCombine digest of the isolated ordered pairs
 * (a * subarrays + b, ascending) of each test geometry's SPT, recorded
 * from the map's earlier one-bool-per-pair matrix: the partner bitmaps
 * must encode the same pair set.
 */
struct PairSetPin
{
    std::uint32_t subarrays;
    unsigned pairs;
    std::uint64_t digest;
};

constexpr PairSetPin kPairSetPins[] = {
    {128, 5184, 0xd900c02d640f1263ull},
    {100, 3062, 0xe651ba6c8aeb63d8ull},
    {64, 1200, 0xd499fbf3edeabdbbull},
    {2, 0, 0},
};

} // namespace

class RefPtrIndexProperty : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(RefPtrIndexProperty, PeekMatchesLinearScan)
{
    const std::uint32_t subs = GetParam();
    SubarrayPairsTable spt(geometryWith(subs), 0.32, 0x5b7a + subs);
    RefPtrTable rp(kBanks, subs, kRowsPerSub);
    Rng rng(0x1dc5 + subs);

    int partner_hits = 0;
    for (int step = 0; step < 40000; ++step) {
        BankId bank = static_cast<BankId>(rng.below(kBanks));
        SubarrayId partner = rng.chance(0.5)
                                 ? kAnySubarray
                                 : static_cast<SubarrayId>(rng.below(subs));
        RefPtrPick got = rp.peek(bank, partner, spt);
        RefPtrPick want = oraclePeek(rp, bank, partner, spt);
        ASSERT_EQ(got.valid(), want.valid()) << "step " << step;
        if (want.valid()) {
            ASSERT_EQ(got.subarray, want.subarray) << "step " << step;
            ASSERT_EQ(got.row, want.row) << "step " << step;
            partner_hits += partner != kAnySubarray;
        }

        // Mostly commit the pick, as HiRA-MC does; sometimes advance an
        // arbitrary subarray, which leaves the counts uneven and sends
        // partner peeks to the scan over the partner bits.
        double u = rng.uniform();
        if (u < 0.0005) {
            rp.resetWindow();
        } else if (u < 0.8 && got.valid()) {
            rp.advance(bank, got.subarray);
        } else {
            rp.advance(bank, static_cast<SubarrayId>(rng.below(subs)));
        }
    }
    // Two subarrays are adjacent and never pair; every larger bank
    // must have exercised the partner path.
    if (subs > 2)
        EXPECT_GT(partner_hits, 0);
    else
        EXPECT_EQ(partner_hits, 0);
}

TEST_P(RefPtrIndexProperty, PartnerBitsMatchIsolation)
{
    const std::uint32_t subs = GetParam();
    SubarrayPairsTable spt(geometryWith(subs), 0.32, 0x5b7a + subs);
    const IsolationMap &iso = spt.map();
    ASSERT_EQ(iso.partnerWords(), (subs + 63) / 64);
    unsigned pairs = 0;
    std::uint64_t digest = 0;
    for (SubarrayId a = 0; a < subs; ++a) {
        const std::uint64_t *bits = iso.partnerBits(a);
        for (SubarrayId b = 0; b < iso.partnerWords() * 64; ++b) {
            bool bit = (bits[b / 64] >> (b % 64)) & 1;
            bool want = b < subs && iso.isolated(a, b);
            EXPECT_EQ(bit, want) << a << "," << b;
            if (bit) {
                EXPECT_TRUE((iso.partnerBits(b)[a / 64] >> (a % 64)) & 1)
                    << "asymmetric " << a << "," << b;
                ++pairs;
                digest = hashCombine(digest, std::uint64_t(a) * subs + b);
            }
        }
        EXPECT_FALSE((bits[a / 64] >> (a % 64)) & 1) << "self bit " << a;
    }
    for (const PairSetPin &pin : kPairSetPins) {
        if (pin.subarrays != subs)
            continue;
        EXPECT_EQ(pairs, pin.pairs);
        EXPECT_EQ(digest, pin.digest);
    }
}

INSTANTIATE_TEST_SUITE_P(Subarrays, RefPtrIndexProperty,
                         ::testing::Values(128u, 100u, 64u, 2u));
