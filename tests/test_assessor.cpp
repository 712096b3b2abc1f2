#include "assess/assessor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "assess/backend.hpp"
#include "assess/exact.hpp"
#include "batch_reference.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

/// Small leaf-spine fixture where exact reliability is computable, used to
/// validate both samplers end-to-end through the full assessment pipeline.
struct assess_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 3, .hosts_per_leaf = 2, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    bfs_reachability oracle{topo};

    /// The serial backend: the batch scheme with one inline worker.
    std::unique_ptr<parallel_backend> make_serial_backend(
        failure_sampler& sampler) {
        return std::make_unique<parallel_backend>(
            registry.size(), &forest,
            [this] { return std::make_unique<bfs_reachability>(topo); },
            sampler, parallel_backend_options{.threads = 1});
    }

    assess_fixture() {
        // Heterogeneous, moderately large probabilities so 2*10^4 rounds
        // give a tight estimate and exact enumeration stays cheap.
        double p = 0.02;
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) == component_kind::external) {
                continue;
            }
            registry.set_probability(id, p);
            p = p >= 0.08 ? 0.02 : p + 0.01;
        }
    }
};

enum class kind { monte_carlo, extended_dagger };

class AssessorVsExact
    : public ::testing::TestWithParam<std::tuple<kind, int, int>> {};

TEST_P(AssessorVsExact, SampledScoreIsWithinErrorBound) {
    const auto [sampler_kind, k, n] = GetParam();
    assess_fixture f;
    const application app = application::k_of_n(k, n);
    deployment_plan plan;
    for (int i = 0; i < n; ++i) {
        plan.hosts.push_back(f.topo.hosts[i]);
    }
    const double truth =
        exact_reliability(f.registry, &f.forest, f.oracle, app, plan);

    std::unique_ptr<failure_sampler> sampler;
    if (sampler_kind == kind::monte_carlo) {
        sampler = std::make_unique<monte_carlo_sampler>(
            f.registry.probabilities(), 77);
    } else {
        sampler = std::make_unique<extended_dagger_sampler>(
            f.registry.probabilities(), 77);
    }
    round_state rs{f.registry.size(), &f.forest};
    const assessment_stats stats = assess_deployment(
        *sampler, rs, f.oracle, app, plan, 20000);

    // The estimate must fall within ~1.5x the reported 95% interval of the
    // ground truth (allowing slack for the 5% miss probability).
    EXPECT_NEAR(stats.reliability, truth, 1.5 * stats.ciw95 + 1e-3)
        << "truth=" << truth;
    EXPECT_GT(stats.ciw95, 0.0);
    EXPECT_EQ(stats.rounds, 20000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssessorVsExact,
    ::testing::Combine(::testing::Values(kind::monte_carlo,
                                         kind::extended_dagger),
                       ::testing::Values(1, 2),  // K
                       ::testing::Values(2, 3)),  // N
    [](const auto& info) {
        // NOTE: no structured bindings here — the top-level commas would
        // split the INSTANTIATE_TEST_SUITE_P macro arguments.
        const kind s = std::get<0>(info.param);
        return std::string(s == kind::monte_carlo ? "mc" : "dagger") + "_k" +
               std::to_string(std::get<1>(info.param)) + "of" +
               std::to_string(std::get<2>(info.param));
    });

TEST(Assessor, ReusableAssessorMatchesFreeFunction) {
    // The reusable assessor is the serial backend: its first assessment is
    // epoch 1 of the batch scheme, i.e. the free function run over the
    // forked batches (1, 0), (1, 1), ... in turn.
    assess_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0], f.topo.hosts[3]};

    extended_dagger_sampler base{f.registry.probabilities(), 5};
    round_state rs{f.registry.size(), &f.forest};
    result_accumulator direct;
    for (std::size_t b = 0; b * default_batch_rounds < 5000; ++b) {
        const auto substream = base.fork(substream_id(1, b));
        const assessment_stats batch = assess_deployment(
            *substream, rs, f.oracle, app, plan,
            std::min(default_batch_rounds, 5000 - b * default_batch_rounds));
        direct.merge(batch.reliable, batch.rounds);
    }

    extended_dagger_sampler sampler{f.registry.probabilities(), 5};
    const auto assessor = f.make_serial_backend(sampler);
    const assessment_stats reused = assessor->assess(app, plan, 5000);

    EXPECT_EQ(direct.reliable_rounds(), reused.reliable);
    EXPECT_EQ(direct.rounds(), reused.rounds);
    extended_dagger_sampler reference{f.registry.probabilities(), 5};
    EXPECT_EQ(
        forked_batch_reference(reference, 1, rs, f.oracle, app, plan, 5000)
            .reliable,
        reused.reliable);
}

TEST(Assessor, DeterministicForSameSeed) {
    assess_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[1], f.topo.hosts[4]};

    const auto run = [&] {
        extended_dagger_sampler sampler{f.registry.probabilities(), 123};
        round_state rs{f.registry.size(), &f.forest};
        return assess_deployment(sampler, rs, f.oracle, app, plan, 3000)
            .reliability;
    };
    EXPECT_EQ(run(), run());
}

TEST(Assessor, MorePlacementDiversityIsMoreReliable) {
    // Co-located instances (same rack) vs spread instances: the spread plan
    // must assess at least as reliable — the core premise of the paper.
    assess_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan colocated;
    colocated.hosts = {f.topo.hosts[0], f.topo.hosts[1]};  // same leaf
    deployment_plan spread;
    spread.hosts = {f.topo.hosts[0], f.topo.hosts[4]};  // different leaves

    extended_dagger_sampler sampler{f.registry.probabilities(), 9};
    const auto assessor = f.make_serial_backend(sampler);
    const double r_colocated =
        assessor->assess(app, colocated, 30000).reliability;
    const double r_spread = assessor->assess(app, spread, 30000).reliability;
    EXPECT_GE(r_spread + 0.002, r_colocated);  // allow sampling noise

    const double truth_colocated =
        exact_reliability(f.registry, &f.forest, f.oracle, app, colocated);
    const double truth_spread =
        exact_reliability(f.registry, &f.forest, f.oracle, app, spread);
    EXPECT_GT(truth_spread, truth_colocated);
}

TEST(Assessor, ZeroRoundsYieldsEmptyStats) {
    assess_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.topo.hosts[0], f.topo.hosts[2]};
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    round_state rs{f.registry.size(), &f.forest};
    const assessment_stats stats =
        assess_deployment(sampler, rs, f.oracle, app, plan, 0);
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.reliability, 0.0);
}

}  // namespace
}  // namespace recloud
