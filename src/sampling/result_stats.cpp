#include "sampling/result_stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace recloud {

assessment_stats result_accumulator::stats() const noexcept {
    assessment_stats s = make_assessment_stats(reliable_, rounds_);
    if (replicates_ < min_replicates || replicate_rounds_ != rounds_) {
        return s;  // Eq. 2
    }
    // sum_b (x_b - q n_b)^2 = sum x^2 - 2q sum x n + q^2 sum n^2, taken over
    // the rarer outcome (x = reliable or failed rounds) so the three terms
    // stay the size of the result when R is near 0 or 1. The failed-round
    // moments follow exactly from the reliable ones: f_b = n_b - r_b.
    const std::uint64_t failed = rounds_ - reliable_;
    double xx = static_cast<double>(sum_rr_);
    double xn = static_cast<double>(sum_rn_);
    double q = s.reliability;
    if (failed < reliable_) {
        xx = static_cast<double>(sum_nn_ - 2 * sum_rn_ + sum_rr_);
        xn = static_cast<double>(sum_nn_ - sum_rn_);
        q = static_cast<double>(failed) / static_cast<double>(rounds_);
    }
    const double spread =
        std::max(0.0, xx - 2.0 * q * xn + q * q * static_cast<double>(sum_nn_));
    const double b = static_cast<double>(replicates_);
    const double n = static_cast<double>(rounds_);
    s.variance = b / (b - 1.0) * spread / (n * n);
    s.ciw95 = 2.0 * student_t_two_sigma(b - 1.0) * std::sqrt(s.variance);
    s.replicates = replicates_;
    return s;
}

double student_t_two_sigma(double dof) noexcept {
    // t = z + g1(z)/v + g2(z)/v^2 + g3(z)/v^3 + g4(z)/v^4 at z = 2, with
    // g1 = (z^3 + z)/4, g2 = (5z^5 + 16z^3 + 3z)/96,
    // g3 = (3z^7 + 19z^5 + 17z^3 - 15z)/384 and
    // g4 = (79z^9 + 776z^7 + 1482z^5 - 1920z^3 - 945z)/92160.
    const double inv = 1.0 / dof;
    const double g4 = 169950.0 / 92160.0;
    return 2.0 + inv * (2.5 + inv * (3.0625 + inv * (2.859375 + inv * g4)));
}

std::size_t rounds_for_target_variance(double target_ciw,
                                       double per_round_variance) {
    if (!(target_ciw > 0.0)) {  // also rejects NaN
        throw std::invalid_argument{
            "rounds_for_target_variance: target must be > 0"};
    }
    // The cap keeps the double -> size_t cast in range: for a tiny target
    // 16*s^2/target^2 can exceed even size_t's range, and casting such a
    // double is undefined behaviour. Comparisons stay in double, where the
    // cap is exactly representable.
    const double cap = static_cast<double>(max_ciw_planning_rounds);
    double n;
    if (per_round_variance <= 0.0) {
        // Anticipating certainty (R exactly 0 or 1): the formula degenerates
        // to 0 rounds, and answering "1" makes the planned sample useless.
        // If even one of n rounds disagrees with the anticipated outcome,
        // Var[L] ~= 1/n and CIW95 = 4*sqrt(Var[L]/n) ~= 4/n — so plan
        // n >= 4/target, the smallest sample whose error bound could still
        // meet the target under a single surprise.
        n = std::ceil(4.0 / target_ciw);
    } else {
        // CIW = 4*sqrt(s^2/n) <= target  =>  n >= 16*s^2/target^2.
        n = std::ceil(16.0 * per_round_variance / (target_ciw * target_ciw));
    }
    if (!(n < cap)) {
        return max_ciw_planning_rounds;
    }
    return std::max<std::size_t>(static_cast<std::size_t>(n), 1);
}

}  // namespace recloud
