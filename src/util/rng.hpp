// Deterministic pseudo-random number generation for reCloud.
//
// Every stochastic piece of the system (samplers, annealing, workload and
// failure-probability models) takes an explicit seed so that experiments and
// tests are reproducible. The generator is xoshiro256**, seeded through
// splitmix64 as its authors recommend; it satisfies
// std::uniform_random_bit_generator so the standard <random> distributions
// can be used on top of it when convenient.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace recloud {

/// Splitmix64 step: turns an arbitrary 64-bit state into a well-mixed
/// sequence. Used to expand a single user seed into generator state.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256** generator. Small, fast, and of far higher quality than
/// std::minstd; state is 256 bits.
class rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the generator deterministically from a single 64-bit value.
    explicit rng(std::uint64_t seed = 0x7ec10d5eedULL) noexcept;

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    /// Next raw 64-bit output. Defined here, with uniform(), so that the
    /// samplers' per-draw loops inline it.
    result_type operator()() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1). Uses the top 53 bits.
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method to
    /// avoid modulo bias.
    [[nodiscard]] std::uint64_t uniform_below(std::uint64_t n) noexcept;

    /// Standard normal draw (Box–Muller, cached second value).
    [[nodiscard]] double normal() noexcept;

    /// Normal draw with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev) noexcept;

    /// Forks an independent generator; the child stream is decorrelated from
    /// the parent. Useful to give each worker its own stream.
    [[nodiscard]] rng fork() noexcept;

private:
    std::uint64_t state_[4];
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace recloud
