#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sampling/dagger.hpp"
#include "util/stats.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/injection.hpp"
#include "sampling/monte_carlo.hpp"
#include "sampling/result_stats.hpp"

namespace recloud {
namespace {

// ---- dagger primitives --------------------------------------------------

TEST(DaggerPlan, CycleLengthIsFloorOfInverse) {
    EXPECT_EQ(make_dagger_plan(0.3).cycle_length, 3u);
    EXPECT_EQ(make_dagger_plan(0.01).cycle_length, 100u);
    EXPECT_EQ(make_dagger_plan(0.5).cycle_length, 2u);
    EXPECT_EQ(make_dagger_plan(0.6).cycle_length, 1u);
    EXPECT_EQ(make_dagger_plan(1.0).cycle_length, 1u);
    EXPECT_EQ(make_dagger_plan(0.0).cycle_length, 0u);
}

TEST(DaggerSlot, PaperFigure3Examples) {
    // Figure 3a: p = 0.3, r = 0.4 -> second subinterval -> slot 1.
    const dagger_plan plan = make_dagger_plan(0.3);
    const auto slot_a = dagger_slot(plan, 0.4);
    ASSERT_TRUE(slot_a.has_value());
    EXPECT_EQ(*slot_a, 1u);
    // Figure 3b: p = 0.3, r = 0.95 -> remainder -> alive all cycle.
    EXPECT_FALSE(dagger_slot(plan, 0.95).has_value());
}

TEST(DaggerSlot, SubintervalBoundaries) {
    const dagger_plan plan = make_dagger_plan(0.25);  // 4 subintervals, no remainder
    EXPECT_EQ(*dagger_slot(plan, 0.0), 0u);
    EXPECT_EQ(*dagger_slot(plan, 0.2499), 0u);
    EXPECT_EQ(*dagger_slot(plan, 0.25), 1u);
    EXPECT_EQ(*dagger_slot(plan, 0.9999), 3u);
}

TEST(DaggerSlot, NeverFailingComponent) {
    const dagger_plan plan = make_dagger_plan(0.0);
    EXPECT_FALSE(dagger_slot(plan, 0.0).has_value());
    EXPECT_FALSE(dagger_slot(plan, 0.999).has_value());
}

// ---- samplers: shared behaviour, parameterized over the sampler kind ----

enum class kind { monte_carlo, extended_dagger };

std::unique_ptr<failure_sampler> make(kind k, std::span<const double> probs,
                                      std::uint64_t seed) {
    switch (k) {
        case kind::monte_carlo:
            return std::make_unique<monte_carlo_sampler>(probs, seed);
        case kind::extended_dagger:
            return std::make_unique<extended_dagger_sampler>(probs, seed);
    }
    return nullptr;
}

class SamplerProperty : public ::testing::TestWithParam<kind> {};

TEST_P(SamplerProperty, EmpiricalFailureRateMatchesProbability) {
    // Components with heterogeneous probabilities; the long-run failure
    // frequency of each must match its probability (dagger sampling is
    // unbiased, §3.2.2).
    const std::vector<double> probs{0.01, 0.05, 0.3, 0.5, 0.0, 0.002};
    auto sampler = make(GetParam(), probs, 42);
    std::vector<std::size_t> failures(probs.size(), 0);
    const std::size_t rounds = 200000;
    std::vector<component_id> failed;
    for (std::size_t r = 0; r < rounds; ++r) {
        sampler->next_round(failed);
        for (const component_id id : failed) {
            ++failures[id];
        }
    }
    for (std::size_t i = 0; i < probs.size(); ++i) {
        const double rate = static_cast<double>(failures[i]) / rounds;
        EXPECT_NEAR(rate, probs[i], 0.01 + probs[i] * 0.05)
            << "component " << i;
    }
}

TEST_P(SamplerProperty, FailedIdsAreValidAndUnique) {
    const std::vector<double> probs(50, 0.2);
    auto sampler = make(GetParam(), probs, 7);
    std::vector<component_id> failed;
    for (int r = 0; r < 500; ++r) {
        sampler->next_round(failed);
        std::vector<component_id> sorted = failed;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
        for (const component_id id : failed) {
            ASSERT_LT(id, probs.size());
        }
    }
}

TEST_P(SamplerProperty, DeterministicPerSeed) {
    const std::vector<double> probs{0.1, 0.2, 0.05};
    auto a = make(GetParam(), probs, 99);
    auto b = make(GetParam(), probs, 99);
    std::vector<component_id> fa;
    std::vector<component_id> fb;
    for (int r = 0; r < 1000; ++r) {
        a->next_round(fa);
        b->next_round(fb);
        ASSERT_EQ(fa, fb) << "round " << r;
    }
}

TEST_P(SamplerProperty, ResetRestartsTheStream) {
    const std::vector<double> probs{0.1, 0.2, 0.05};
    auto sampler = make(GetParam(), probs, 5);
    std::vector<std::vector<component_id>> first;
    std::vector<component_id> failed;
    for (int r = 0; r < 100; ++r) {
        sampler->next_round(failed);
        first.push_back(failed);
    }
    sampler->reset(5);
    for (int r = 0; r < 100; ++r) {
        sampler->next_round(failed);
        ASSERT_EQ(failed, first[r]) << "round " << r;
    }
}

TEST_P(SamplerProperty, ZeroProbabilityNeverFails) {
    const std::vector<double> probs{0.0, 0.5, 0.0};
    auto sampler = make(GetParam(), probs, 3);
    std::vector<component_id> failed;
    for (int r = 0; r < 2000; ++r) {
        sampler->next_round(failed);
        for (const component_id id : failed) {
            EXPECT_EQ(id, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, SamplerProperty,
                         ::testing::Values(kind::monte_carlo,
                                           kind::extended_dagger),
                         [](const auto& info) {
                             switch (info.param) {
                                 case kind::monte_carlo: return "monte_carlo";
                                 case kind::extended_dagger:
                                     return "extended_dagger";
                             }
                             return "unknown";
                         });

// ---- extended dagger specifics ------------------------------------------

TEST(ExtendedDagger, BlockLengthIsLongestCycle) {
    const std::vector<double> probs{0.5, 0.01, 0.1};  // cycles 2, 100, 10
    const extended_dagger_sampler sampler{probs, 1};
    EXPECT_EQ(sampler.block_length(), 100u);
}

TEST(ExtendedDagger, AtMostOneFailurePerCycle) {
    // A component fails at most once within each of its dagger cycles.
    const std::vector<double> probs{0.2};  // cycle length 5
    extended_dagger_sampler sampler{probs, 11};
    std::vector<component_id> failed;
    for (int block = 0; block < 2000; ++block) {
        int failures_in_cycle = 0;
        for (int r = 0; r < 5; ++r) {
            sampler.next_round(failed);
            failures_in_cycle += static_cast<int>(failed.size());
        }
        ASSERT_LE(failures_in_cycle, 1);
    }
}

TEST(ExtendedDagger, UsesFarFewerRandomDrawsThanRounds) {
    // Indirect check of the efficiency claim: the expected number of failed
    // entries per round equals sum(p) regardless, but dagger generates them
    // from ~rounds*sum(p) draws. We verify the sampler still matches the
    // mean with rare probabilities where Monte-Carlo noise would be huge.
    const std::vector<double> probs(100, 0.001);
    extended_dagger_sampler sampler{probs, 21};
    std::size_t total_failures = 0;
    std::vector<component_id> failed;
    const std::size_t rounds = 100000;
    for (std::size_t r = 0; r < rounds; ++r) {
        sampler.next_round(failed);
        total_failures += failed.size();
    }
    const double expected = 100 * 0.001 * static_cast<double>(rounds);
    EXPECT_NEAR(static_cast<double>(total_failures), expected, expected * 0.1);
}

TEST(ExtendedDagger, VarianceReductionOnKOfNindicator) {
    // The indicator "no component failed this round" has lower empirical
    // variance across batches under dagger sampling than Monte-Carlo —
    // the variance-reduction effect of §3.2.2.
    const std::vector<double> probs(20, 0.05);
    const std::size_t batches = 300;
    const std::size_t rounds_per_batch = 100;

    const auto batch_variance = [&](failure_sampler& sampler) {
        std::vector<double> batch_means;
        std::vector<component_id> failed;
        for (std::size_t b = 0; b < batches; ++b) {
            std::size_t ok = 0;
            for (std::size_t r = 0; r < rounds_per_batch; ++r) {
                sampler.next_round(failed);
                ok += failed.empty() ? 1 : 0;
            }
            batch_means.push_back(static_cast<double>(ok) / rounds_per_batch);
        }
        return variance_of(batch_means);
    };

    monte_carlo_sampler mc{probs, 31};
    extended_dagger_sampler dagger{probs, 31};
    const double v_mc = batch_variance(mc);
    const double v_dagger = batch_variance(dagger);
    EXPECT_LT(v_dagger, v_mc);
}

// ---- result statistics ---------------------------------------------------

TEST(ResultAccumulator, CountsAndStats) {
    result_accumulator acc;
    for (int i = 0; i < 90; ++i) {
        acc.add(true);
    }
    for (int i = 0; i < 10; ++i) {
        acc.add(false);
    }
    EXPECT_EQ(acc.rounds(), 100u);
    EXPECT_EQ(acc.reliable_rounds(), 90u);
    const assessment_stats s = acc.stats();
    EXPECT_DOUBLE_EQ(s.reliability, 0.9);
}

TEST(ResultAccumulator, MergeFromWorkers) {
    result_accumulator acc;
    acc.merge(50, 60);
    acc.merge(30, 40);
    EXPECT_EQ(acc.rounds(), 100u);
    EXPECT_EQ(acc.reliable_rounds(), 80u);
}

/// 24 unequal replicates (a short last one, like a short last batch).
std::vector<std::pair<std::size_t, std::size_t>> sample_replicates() {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t b = 0; b < 24; ++b) {
        const std::size_t rounds = b + 1 < 24 ? 100 : 37;
        out.emplace_back(std::min(rounds, 80 + (b * 7) % 19), rounds);
    }
    return out;
}

TEST(ResultAccumulator, ReplicateVarianceIsTheRatioEstimator) {
    result_accumulator acc;
    double reliable = 0.0;
    double rounds = 0.0;
    for (const auto& [r, n] : sample_replicates()) {
        acc.merge(r, n);
        reliable += static_cast<double>(r);
        rounds += static_cast<double>(n);
    }
    const double ratio = reliable / rounds;
    double spread = 0.0;
    for (const auto& [r, n] : sample_replicates()) {
        const double d = static_cast<double>(r) - ratio * static_cast<double>(n);
        spread += d * d;
    }
    const double expected = 24.0 / 23.0 * spread / (rounds * rounds);
    const assessment_stats s = acc.stats();
    EXPECT_EQ(s.replicates, 24u);
    EXPECT_DOUBLE_EQ(s.reliability, ratio);
    EXPECT_NEAR(s.variance, expected, 1e-12 * expected);
    // The Student-t quantile for 23 degrees of freedom replaces Eq. 3's 2.
    EXPECT_NEAR(s.ciw95, 2.0 * 2.1147266 * std::sqrt(s.variance),
                1e-6 * s.ciw95);
    // The same counts priced as iid rounds (Eq. 2) give another V.
    EXPECT_NE(s.variance,
              make_assessment_stats(acc.reliable_rounds(), acc.rounds()).variance);
}

TEST(ResultAccumulator, StudentTQuantileMatchesTheDistribution) {
    // Quantiles at Phi(2) by numerical integration of the t density.
    EXPECT_NEAR(student_t_two_sigma(19.0), 2.1404937, 1e-6);
    EXPECT_NEAR(student_t_two_sigma(29.0), 2.0899683, 1e-6);
    EXPECT_NEAR(student_t_two_sigma(39.0), 2.0661651, 1e-6);
    EXPECT_NEAR(student_t_two_sigma(99.0), 2.0255680, 1e-6);
    EXPECT_NEAR(student_t_two_sigma(1e9), 2.0, 1e-6);
}

TEST(ResultAccumulator, MergeOrderAndGroupingLeaveStatsBitIdentical) {
    // Backends merge batches in schedule order and workers' tallies in
    // worker order; the integer moments make every order agree exactly.
    const auto replicates = sample_replicates();
    result_accumulator forward;
    for (const auto& [r, n] : replicates) {
        forward.merge(r, n);
    }
    result_accumulator odd;
    result_accumulator even;
    for (std::size_t b = replicates.size(); b-- > 0;) {
        (b % 2 == 0 ? even : odd).merge(replicates[b].first, replicates[b].second);
    }
    result_accumulator grouped;
    grouped.merge(odd);
    grouped.merge(even);
    const assessment_stats a = forward.stats();
    const assessment_stats b = grouped.stats();
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.reliable, b.reliable);
    EXPECT_EQ(a.variance, b.variance);
    EXPECT_EQ(a.ciw95, b.ciw95);
    EXPECT_EQ(a.replicates, b.replicates);
}

TEST(ResultAccumulator, FewReplicatesOrLooseRoundsKeepEq2) {
    result_accumulator few;
    const auto replicates = sample_replicates();
    for (std::size_t b = 0; b + 1 < min_replicates; ++b) {
        few.merge(replicates[b].first, replicates[b].second);
    }
    const assessment_stats binomial =
        make_assessment_stats(few.reliable_rounds(), few.rounds());
    EXPECT_EQ(few.stats().replicates, 0u);
    EXPECT_EQ(few.stats().variance, binomial.variance);

    // Rounds outside every replicate leave the moments incomplete.
    result_accumulator loose;
    for (const auto& [r, n] : replicates) {
        loose.merge(r, n);
    }
    loose.add(true);
    EXPECT_EQ(loose.replicates(), 24u);
    EXPECT_EQ(loose.stats().replicates, 0u);
    EXPECT_EQ(loose.stats().variance,
              make_assessment_stats(loose.reliable_rounds(), loose.rounds())
                  .variance);
}

TEST(ResultAccumulator, IdenticalReplicatesHaveZeroVariance) {
    // All-reliable and equal-ratio replicates spread by nothing: exactly
    // zero for the first, zero up to rounding (never negative) for the
    // second.
    result_accumulator all;
    result_accumulator equal;
    for (std::size_t b = 0; b < 30; ++b) {
        all.merge(1024, 1024);
        equal.merge(999, 1000);
    }
    EXPECT_EQ(all.stats().variance, 0.0);
    EXPECT_EQ(all.stats().replicates, 30u);
    EXPECT_GE(equal.stats().variance, 0.0);
    EXPECT_LT(equal.stats().variance, 1e-20);
}

TEST(RoundsForTargetCiw, PlansFromPerRoundVariance) {
    // n = 16 s^2 / target^2 for any per-round variance, not only R(1-R).
    EXPECT_EQ(rounds_for_target_variance(1e-2, 0.01), 1600u);
    EXPECT_EQ(rounds_for_target_variance(0.25, 0.5), 128u);
}

TEST(RoundsForTargetCiw, MatchesInverseFormula) {
    // CIW = 4*sqrt(R(1-R)/n): for R=0.99, target 1e-3 -> n = 16*0.0099/1e-6.
    const std::size_t n = rounds_for_target_variance(1e-3, 0.99 * 0.01);
    EXPECT_EQ(n, static_cast<std::size_t>(std::ceil(16.0 * 0.0099 / 1e-6)));
    const assessment_stats s =
        make_assessment_stats(static_cast<std::size_t>(0.99 * n), n);
    EXPECT_LE(s.ciw95, 1e-3 * 1.01);
}

TEST(RoundsForTargetCiw, DegenerateReliability) {
    // Zero per-round variance (R anticipated at exactly 0 or 1) plans
    // ceil(4/target) rounds — the smallest sample whose CIW could still
    // meet the target if one round disagrees — instead of a useless single
    // round.
    EXPECT_EQ(rounds_for_target_variance(1e-4, 0.0), 40'000u);
    EXPECT_GE(rounds_for_target_variance(0.5, 0.0), 8u);
    EXPECT_THROW((void)rounds_for_target_variance(0.0, 0.25),
                 std::invalid_argument);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW((void)rounds_for_target_variance(nan, 0.25),
                 std::invalid_argument);
}

TEST(RoundsForTargetCiw, TinyTargetClampsInsteadOfOverflowing) {
    // 16*s^2/target^2 overflows size_t's range as a double for tiny
    // targets; the cast used to be UB. Now it clamps to the documented cap.
    EXPECT_EQ(rounds_for_target_variance(1e-300, 0.25), max_ciw_planning_rounds);
    EXPECT_EQ(rounds_for_target_variance(5e-10, 0.25), max_ciw_planning_rounds);
    EXPECT_EQ(rounds_for_target_variance(1e-300, 0.0), max_ciw_planning_rounds);
    EXPECT_EQ(rounds_for_target_variance(std::numeric_limits<double>::min(),
                                         0.25),
              max_ciw_planning_rounds);
    // Just under the cap still computes the formula value.
    EXPECT_LT(rounds_for_target_variance(1e-6, 0.25), max_ciw_planning_rounds);
}

// ---- substreams (fork) --------------------------------------------------

std::vector<std::vector<component_id>> draw_rounds(failure_sampler& sampler,
                                                   std::size_t rounds) {
    std::vector<std::vector<component_id>> out;
    std::vector<component_id> failed;
    for (std::size_t i = 0; i < rounds; ++i) {
        sampler.next_round(failed);
        std::sort(failed.begin(), failed.end());
        out.push_back(failed);
    }
    return out;
}

template <typename Sampler>
class SamplerFork : public ::testing::Test {};

using fork_samplers = ::testing::Types<monte_carlo_sampler,
                                       extended_dagger_sampler>;
TYPED_TEST_SUITE(SamplerFork, fork_samplers);

TYPED_TEST(SamplerFork, SameStreamIdYieldsIdenticalStream) {
    const std::vector<double> probs(40, 0.05);
    TypeParam sampler{probs, 7};
    const auto a = draw_rounds(*sampler.fork(3), 200);
    const auto b = draw_rounds(*sampler.fork(3), 200);
    EXPECT_EQ(a, b);
}

TYPED_TEST(SamplerFork, StreamIsIndependentOfParentConsumption) {
    // The substream must depend only on (base seed, stream id) — never on
    // how far the parent stream has advanced. This is what makes parallel
    // batch assignment deterministic for any worker count.
    const std::vector<double> probs(40, 0.05);
    TypeParam fresh{probs, 7};
    const auto before = draw_rounds(*fresh.fork(9), 100);

    TypeParam consumed{probs, 7};
    std::vector<component_id> scratch;
    for (int i = 0; i < 500; ++i) {
        consumed.next_round(scratch);
    }
    EXPECT_EQ(draw_rounds(*consumed.fork(9), 100), before);
}

TYPED_TEST(SamplerFork, DistinctStreamIdsDecorrelate) {
    const std::vector<double> probs(60, 0.1);
    TypeParam sampler{probs, 7};
    EXPECT_NE(draw_rounds(*sampler.fork(0), 200),
              draw_rounds(*sampler.fork(1), 200));
}

TYPED_TEST(SamplerFork, ResetRebasesTheSubstreams) {
    const std::vector<double> probs(40, 0.05);
    TypeParam sampler{probs, 7};
    const auto original = draw_rounds(*sampler.fork(2), 100);
    sampler.reset(8);
    EXPECT_NE(draw_rounds(*sampler.fork(2), 100), original);
    sampler.reset(7);
    EXPECT_EQ(draw_rounds(*sampler.fork(2), 100), original);
}

TYPED_TEST(SamplerFork, ForkedStreamKeepsMarginalProbability) {
    // Substreams must sample the same distribution: with p = 0.1 over 50
    // components and 4000 rounds, the observed failure ratio concentrates
    // tightly around 0.1.
    const std::vector<double> probs(50, 0.1);
    TypeParam sampler{probs, 11};
    const auto rounds = draw_rounds(*sampler.fork(5), 4000);
    std::size_t failures = 0;
    for (const auto& round : rounds) {
        failures += round.size();
    }
    const double ratio =
        static_cast<double>(failures) / (4000.0 * probs.size());
    EXPECT_NEAR(ratio, 0.1, 0.01);
}

TEST(SamplerFork, ScriptedSamplerHasNoSubstreams) {
    scripted_sampler scripted{{{1, 2}, {3}}};
    EXPECT_EQ(scripted.fork(0), nullptr);
}

}  // namespace
}  // namespace recloud
