// Statistics helpers used across the assessment pipeline: streaming
// mean/variance (Welford), the paper's confidence-interval computation
// (Eqs. 1-3 of the reCloud paper), and small numeric utilities.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace recloud {

/// Streaming mean/variance accumulator (Welford's algorithm). Numerically
/// stable; O(1) memory regardless of the number of observations.
class running_stats {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept;
    /// Population variance (divides by n). Matches Var[L] in Eq. 2.
    [[nodiscard]] double variance() const noexcept;
    /// Sample variance (divides by n-1).
    [[nodiscard]] double sample_variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;

    /// Merges another accumulator into this one (parallel reduction).
    void merge(const running_stats& other) noexcept;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/// Assessment statistics for a Bernoulli result list L = {d_1..d_n} where
/// d_i = 1 iff the deployment plan was reliable in round i (paper §3.2.2).
struct assessment_stats {
    std::size_t rounds = 0;       ///< n
    std::size_t reliable = 0;     ///< number of rounds with d_i = 1
    double reliability = 0.0;     ///< R = sum(d_i)/n           (Eq. 1)
    double variance = 0.0;        ///< V = Var[L]/n (Eq. 2), or from replicates
    /// CIW95 = 4*sqrt(V) (Eq. 3); from replicates 2*t*sqrt(V), with t the
    /// Student-t quantile for replicates - 1 degrees of freedom.
    double ciw95 = 0.0;
    /// Independent replicates V was estimated from, or 0 when V is the
    /// binomial Eq. 2 (result_accumulator::stats).
    std::size_t replicates = 0;
};

/// Computes Eqs. 1-3 from the count of reliable rounds. For a 0/1 list,
/// Var[L] = R*(1-R), so only the counts are needed — when the rounds are
/// iid. Correlated rounds (dagger cycles) need V from independent
/// replicates instead (result_accumulator in sampling/result_stats.hpp).
[[nodiscard]] assessment_stats make_assessment_stats(std::size_t reliable_rounds,
                                                     std::size_t total_rounds) noexcept;

/// Rounds to the given number of decimal places (the paper rounds failure
/// probabilities to 4 decimals, §4.1).
[[nodiscard]] double round_to_decimals(double x, int decimals) noexcept;

/// Clamps x into [lo, hi].
[[nodiscard]] double clamp(double x, double lo, double hi) noexcept;

/// Mean of a span.
[[nodiscard]] double mean_of(std::span<const double> xs) noexcept;

/// Population variance of a span.
[[nodiscard]] double variance_of(std::span<const double> xs) noexcept;

}  // namespace recloud
