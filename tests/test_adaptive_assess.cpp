// Adaptive-precision assessment: runs until the CIW95 target is met.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assess/backend.hpp"
#include "exec/engine.hpp"
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

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
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

TEST(AdaptiveAssess, ReplicateBoundStopsDaggerEarlierThanBinomial) {
    // Dagger's rounds are negatively correlated within a cycle, so Eq. 2
    // overstates V. Once the batches give min_replicates replicates the
    // loop plans from their variance: it stops with a bound that meets the
    // target although Eq. 2 over the same counts would not.
    adaptive_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), 17};
    parallel_backend backend{f.registry.size(), nullptr, f.factory(), sampler,
                             {.threads = 1, .batch_rounds = 256}};
    const assessment_stats stats = backend.assess_until_ciw(
        f.app, f.plan,
        {.target_ciw = 4e-3, .initial_rounds = 1000, .max_rounds = 2'000'000});
    EXPECT_GE(stats.replicates, min_replicates);
    EXPECT_LE(stats.ciw95, 4e-3);
    EXPECT_GT(make_assessment_stats(stats.reliable, stats.rounds).ciw95, 4e-3);
}

TEST(AdaptiveAssess, ReplicateBoundStopsOnlyFromTwiceMinReplicates) {
    // 20 replicates already meet this target, but they estimate V only to
    // about 30%, and a loop that stops on the first low estimate
    // under-covers: it grows to twice min_replicates first, by a quarter
    // per epoch.
    adaptive_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), 19};
    parallel_backend backend{f.registry.size(), nullptr, f.factory(), sampler,
                             {.threads = 1, .batch_rounds = 64}};
    const assessment_stats stats = backend.assess_until_ciw(
        f.app, f.plan,
        {.target_ciw = 0.5, .initial_rounds = 20 * 64, .max_rounds = 1'000'000});
    EXPECT_EQ(stats.replicates, 2 * min_replicates);
    EXPECT_EQ(stats.rounds, 2500u);  // 1280, 1600, 2000, 2500 rounds
}

TEST(AdaptiveAssess, AgreeingRoundsStopOnlyFromFourOverTarget) {
    // With nothing fallible every round is reliable: CIW95 = 0 from the
    // first round on, which says nothing of the spread. The loop doubles
    // until one contradicting round could no longer push CIW95 past the
    // target, 4/target rounds.
    adaptive_fixture f;
    for (component_id id = 0; id < f.registry.size(); ++id) {
        f.registry.set_probability(id, 0.0);
    }
    const assessment_stats stats = f.until_ciw(
        5, {.target_ciw = 1.0 / 64.0, .initial_rounds = 64,
            .max_rounds = 500000});
    EXPECT_EQ(stats.reliability, 1.0);
    EXPECT_EQ(stats.rounds, 256u);  // 64, 128, 256 = 4 / target
}

TEST(AdaptiveAssess, EveryBackendStopsAtTheSameStats) {
    // The loop merges whole epochs of batch replicates, so parallel(4) and
    // the loopback engine must reproduce the serial run bit for bit. The
    // parallel backends keep verdict caches with CRN journals: the first
    // adaptive epoch replays the journal of the assessment before it (one
    // whose ten batches alone would be folded into coarser replicates) and
    // must still hand the loop one replicate per batch, as the engine does.
    adaptive_fixture f;
    const verdict_support support{f.topo, f.registry.size(), nullptr, nullptr};
    verdict_cache_options cache;
    cache.enabled = true;
    cache.support = &support;
    constexpr std::size_t batch_rounds = 100;
    const deployment_plan first{.hosts = {f.topo.hosts[1], f.topo.hosts[4]}};
    const adaptive_assess_options options{
        .target_ciw = 6e-3, .initial_rounds = 1000, .max_rounds = 500000};

    using backend_factory = std::function<std::unique_ptr<assessment_backend>(
        failure_sampler&)>;
    const std::vector<std::pair<std::string, backend_factory>> backends = {
        {"serial",
         [&](failure_sampler& sampler) {
             return std::make_unique<parallel_backend>(
                 f.registry.size(), nullptr, f.factory(), sampler,
                 parallel_backend_options{.threads = 1,
                                          .batch_rounds = batch_rounds,
                                          .verdict_cache = cache});
         }},
        {"parallel(4)",
         [&](failure_sampler& sampler) {
             return std::make_unique<parallel_backend>(
                 f.registry.size(), nullptr, f.factory(), sampler,
                 parallel_backend_options{.threads = 4,
                                          .batch_rounds = batch_rounds,
                                          .verdict_cache = cache});
         }},
        {"engine(loopback, 4)",
         [&](failure_sampler& sampler) {
             return std::make_unique<assessment_engine>(
                 f.registry.size(), nullptr, f.factory(), sampler,
                 engine_options{.workers = 4, .batch_rounds = batch_rounds});
         }},
    };
    std::vector<assessment_stats> got;
    for (const auto& [name, make] : backends) {
        SCOPED_TRACE(name);
        extended_dagger_sampler sampler{f.registry.probabilities(), 23};
        const std::unique_ptr<assessment_backend> backend = make(sampler);
        backend->reset_stream(41);
        (void)backend->assess(f.app, first, options.initial_rounds);
        backend->reset_stream(41);
        got.push_back(backend->assess_until_ciw(f.app, f.plan, options));
        EXPECT_GE(got.back().replicates, min_replicates);
        EXPECT_LE(got.back().ciw95, options.target_ciw);
    }
    for (std::size_t i = 1; i < got.size(); ++i) {
        SCOPED_TRACE(backends[i].first);
        EXPECT_EQ(got[i].rounds, got[0].rounds);
        EXPECT_EQ(got[i].reliable, got[0].reliable);
        EXPECT_EQ(got[i].reliability, got[0].reliability);
        EXPECT_EQ(got[i].variance, got[0].variance);
        EXPECT_EQ(got[i].ciw95, got[0].ciw95);
        EXPECT_EQ(got[i].replicates, got[0].replicates);
    }
}

TEST(AdaptiveAssess, InvalidTargetRejected) {
    adaptive_fixture f;
    EXPECT_THROW((void)f.until_ciw(13, {.target_ciw = 0.0}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace recloud
