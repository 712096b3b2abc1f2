// Accumulation of per-round route-and-check outcomes into the paper's
// reliability score and error bound (Eqs. 1-3), plus planning helpers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/stats.hpp"

namespace recloud {

/// Replicates from which V is estimated from their spread instead of by the
/// binomial Eq. 2. Below this the spread is too noisy to trust (with B
/// replicates the estimate has about B - 1 degrees of freedom).
inline constexpr std::size_t min_replicates = 20;

/// Accumulates the result list L = {d_1..d_n} (d_i = 1 iff the plan was
/// reliable in round i) without storing it, plus integer moments over
/// replicates: tallies (r_b reliable of n_b rounds) that are independent of
/// each other, such as the forked batches of the batch scheme.
///
/// Every field is an integer sum, so merging commutes and stats() is a pure
/// function of the multiset of replicates whatever order they arrive in.
/// The moments are exact while rounds() x the largest replicate stays
/// below 2^64.
class result_accumulator {
public:
    /// One round that belongs to no replicate.
    void add(bool reliable) noexcept {
        ++rounds_;
        if (reliable) {
            ++reliable_;
        }
    }

    /// Merges one replicate: a tally of `total_rounds` rounds judged
    /// elsewhere (a batch, a worker's share) independently of every other.
    void merge(std::size_t reliable_rounds, std::size_t total_rounds) noexcept {
        const auto r = static_cast<std::uint64_t>(reliable_rounds);
        const auto n = static_cast<std::uint64_t>(total_rounds);
        reliable_ += reliable_rounds;
        rounds_ += total_rounds;
        ++replicates_;
        replicate_rounds_ += n;
        sum_rr_ += r * r;
        sum_rn_ += r * n;
        sum_nn_ += n * n;
    }

    /// Merges another accumulator: its loose rounds and its replicates.
    void merge(const result_accumulator& other) noexcept {
        rounds_ += other.rounds_;
        reliable_ += other.reliable_;
        replicates_ += other.replicates_;
        replicate_rounds_ += other.replicate_rounds_;
        sum_rr_ += other.sum_rr_;
        sum_rn_ += other.sum_rn_;
        sum_nn_ += other.sum_nn_;
    }

    [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }
    [[nodiscard]] std::size_t reliable_rounds() const noexcept { return reliable_; }
    [[nodiscard]] std::size_t replicates() const noexcept { return replicates_; }

    /// Eq. 1 for R. V from the replicates when there are at least
    /// min_replicates and they hold every round: the ratio-estimator
    /// variance over replicate tallies, V = B/(B-1) * sum_b (r_b - R n_b)^2
    /// / N^2, which stays honest when rounds are correlated within a
    /// replicate (dagger cycles) and when replicates differ in size (a
    /// short last batch); CIW95 = 2 t sqrt(V), where t is the Student-t
    /// quantile for B-1 degrees of freedom at the coverage of Eq. 3's
    /// +-2 sigma (student_t_two_sigma), because V is itself estimated from
    /// B replicates. Otherwise Eq. 2, V = R(1-R)/N, which treats rounds as
    /// iid, and CIW95 = 4 sqrt(V) (Eq. 3).
    [[nodiscard]] assessment_stats stats() const noexcept;

private:
    std::size_t rounds_ = 0;
    std::size_t reliable_ = 0;
    std::size_t replicates_ = 0;            ///< B
    std::uint64_t replicate_rounds_ = 0;    ///< sum n_b
    std::uint64_t sum_rr_ = 0;              ///< sum r_b^2
    std::uint64_t sum_rn_ = 0;              ///< sum r_b n_b
    std::uint64_t sum_nn_ = 0;              ///< sum n_b^2
};

/// The Student-t quantile for `dof` degrees of freedom at Phi(2) ~ 0.97725,
/// the coverage of Eq. 3's +-2 sigma: the multiplier that replaces 2 when
/// sigma is estimated from dof + 1 replicates. A Cornish-Fisher expansion
/// in 1/dof, within 1e-6 of the exact quantile from 19 dof on; it tends to
/// 2 as dof grows.
[[nodiscard]] double student_t_two_sigma(double dof) noexcept;

/// Ceiling on what rounds_for_target_variance may plan. Far beyond any runnable
/// assessment, but small enough that the planning arithmetic (doubles) maps
/// back into size_t without overflow; 2^62 is exactly representable as a
/// double, so the clamp comparison is itself exact.
inline constexpr std::size_t max_ciw_planning_rounds = std::size_t{1} << 62;

/// Estimates how many rounds are needed so that CIW95 <= target when each
/// round contributes `per_round_variance` (s^2 = V * N: R(1-R) for iid
/// rounds, the replicate estimate times N otherwise). From Eq. 3:
/// n >= 16 * s^2 / target^2, clamped to max_ciw_planning_rounds. For zero
/// variance it plans ceil(4/target) rounds — the smallest sample whose CIW
/// could still meet the target if one round contradicts the rest.
[[nodiscard]] std::size_t rounds_for_target_variance(double target_ciw,
                                                     double per_round_variance);

}  // namespace recloud
