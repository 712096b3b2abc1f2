#include "util/rng.hpp"

#include <cmath>

namespace recloud {

rng::rng(std::uint64_t seed) noexcept {
    // Expand the user seed through splitmix64; this guarantees a non-zero
    // state even for seed == 0 (an all-zero state would be a fixed point).
    std::uint64_t sm = seed;
    for (auto& word : state_) {
        word = splitmix64_next(sm);
    }
}

double rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::uint64_t rng::uniform_below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * n;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box–Muller transform; u1 is kept away from zero so log() is finite.
    double u1 = uniform();
    while (u1 <= 0.0) {
        u1 = uniform();
    }
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

rng rng::fork() noexcept {
    // Derive the child seed from fresh parent output so sibling forks are
    // decorrelated from each other and from the parent's future stream.
    return rng{(*this)()};
}

}  // namespace recloud
