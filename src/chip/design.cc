#include "chip/design.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace hira {

namespace {

constexpr std::uint64_t kTagSubTarget = 100;
constexpr std::uint64_t kTagPair = 101;

} // namespace

IsolationMap::IsolationMap(const ChipConfig &config)
    : cfg(config), count(config.subarraysPerBank),
      words((config.subarraysPerBank + 63) / 64)
{
    hira_assert(count >= 2);
    partners.assign(static_cast<std::size_t>(count) * words, 0);

    // Per-subarray isolation target around the module mean. Averaging
    // the two endpoints' targets halves the spread, so pre-widen by 2x.
    std::vector<double> target(count);
    for (SubarrayId s = 0; s < count; ++s) {
        double u =
            hashUniform(hashCombine(cfg.seed, kTagSubTarget), s);
        target[s] = cfg.pairIsolationMean +
                    2.0 * cfg.pairIsolationSpread * (2.0 * u - 1.0);
    }

    for (SubarrayId a = 0; a < count; ++a) {
        for (SubarrayId b = a + 1; b < count; ++b) {
            // Open-bitline: adjacent subarrays share sense amplifiers.
            if (b - a < 2)
                continue;
            double p = std::clamp(0.5 * (target[a] + target[b]), 0.0, 1.0);
            if (hashUniform(hashCombine(cfg.seed, kTagPair), a, b) >= p)
                continue;
            partners[static_cast<std::size_t>(a) * words + b / 64] |=
                std::uint64_t(1) << (b % 64);
            partners[static_cast<std::size_t>(b) * words + a / 64] |=
                std::uint64_t(1) << (a % 64);
        }
    }
}

double
IsolationMap::isolatedFraction(SubarrayId a) const
{
    std::uint32_t n = 0;
    for (SubarrayId b = 0; b < count; ++b)
        n += isolated(a, b) ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(count - 1);
}

double
IsolationMap::meanIsolatedFraction() const
{
    double sum = 0.0;
    for (SubarrayId a = 0; a < count; ++a)
        sum += isolatedFraction(a);
    return sum / static_cast<double>(count);
}

std::vector<SubarrayId>
IsolationMap::partnersOf(SubarrayId a) const
{
    std::vector<SubarrayId> out;
    for (SubarrayId b = 0; b < count; ++b) {
        if (isolated(a, b))
            out.push_back(b);
    }
    return out;
}

} // namespace hira
