// Adaptive-precision assessment: runs until the CIW95 target is met.
#include <gtest/gtest.h>

#include <memory>

#include "assess/backend.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

struct adaptive_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 3, .hosts_per_leaf = 2, .border_leaves = 1});
    component_registry registry{topo.graph};
    application app = application::k_of_n(1, 2);
    deployment_plan plan;

    adaptive_fixture() {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, 0.05);
            }
        }
        plan.hosts = {topo.hosts[0], topo.hosts[3]};
    }

    /// The serial backend's assess_until_ciw on a fresh stream of `seed`.
    assessment_stats until_ciw(std::uint64_t seed,
                               const adaptive_assess_options& options) {
        extended_dagger_sampler sampler{registry.probabilities(), seed};
        parallel_backend backend{
            registry.size(), nullptr,
            [this] { return std::make_unique<bfs_reachability>(topo); },
            sampler, {.threads = 1}};
        return backend.assess_until_ciw(app, plan, options);
    }
};

TEST(AdaptiveAssess, ReachesTargetCiw) {
    adaptive_fixture f;
    const assessment_stats stats = f.until_ciw(
        3, {.target_ciw = 5e-3, .initial_rounds = 500, .max_rounds = 500000});
    EXPECT_LE(stats.ciw95, 5e-3);
    EXPECT_GT(stats.rounds, 500u);  // 500 rounds cannot reach 5e-3 here
}

TEST(AdaptiveAssess, TighterTargetNeedsMoreRounds) {
    adaptive_fixture f;
    const assessment_stats loose = f.until_ciw(
        7, {.target_ciw = 1e-2, .initial_rounds = 200, .max_rounds = 500000});
    const assessment_stats tight = f.until_ciw(
        7, {.target_ciw = 2e-3, .initial_rounds = 200, .max_rounds = 500000});
    EXPECT_LT(loose.rounds, tight.rounds);
    EXPECT_LE(tight.ciw95, 2e-3);
}

TEST(AdaptiveAssess, MaxRoundsCapsTheRun) {
    adaptive_fixture f;
    const assessment_stats stats = f.until_ciw(
        9, {.target_ciw = 1e-9, .initial_rounds = 100, .max_rounds = 5000});
    EXPECT_EQ(stats.rounds, 5000u);
    EXPECT_GT(stats.ciw95, 1e-9);  // target unreachable within the cap
}

TEST(AdaptiveAssess, TrivialTargetStopsImmediately) {
    adaptive_fixture f;
    const assessment_stats stats = f.until_ciw(
        11, {.target_ciw = 1.0, .initial_rounds = 100, .max_rounds = 500000});
    EXPECT_EQ(stats.rounds, 100u);
}

TEST(AdaptiveAssess, InvalidTargetRejected) {
    adaptive_fixture f;
    EXPECT_THROW((void)f.until_ciw(13, {.target_ciw = 0.0}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace recloud
