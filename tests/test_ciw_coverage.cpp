// Coverage of the reported error bound against ground truth: on tiny
// topologies of several families, exact_reliability gives the true R, and
// the interval [R - CIW95/2, R + CIW95/2] an assessment reports must
// contain it in about 95% of independent streams.
//
// Each sampler is judged over 400 FIXED seeds, cycling through the
// families. At 400 trials coverage has a standard error of about 1.1
// points, so the band 93-97% spans about two standard errors either side;
// fixed seeds make the verdict reproducible (a rotating seed would fail a
// correct estimator about 7% of the time).
//
//   * 64 batches of 64 rounds: V comes from the batch replicates, and the
//     coverage must land in the band. Batches are at least one dagger
//     cycle long here (cycles of 16 to 50 rounds).
//   * 4 batches of 512 rounds: too few replicates, so V is the binomial
//     Eq. 2. That is exact for Monte-Carlo and conservative for dagger
//     (whose rounds correlate negatively within a cycle): coverage must
//     be at least 93%.
//   * assess_until_ciw in batches of 64 rounds, to a target that stops
//     after 20 to 100 replicates on average: the interval it stops with
//     must cover in at least 93% of seeds.
//
// The fixed seeds read (Monte-Carlo / dagger) 96.00 / 96.25% with
// replicates, 96.75 / 97.75% with Eq. 2 and 94.50 / 97.25% at the
// adaptive stop. Over 8000 seeds the same cases read 94.90 / 95.43%,
// 94.59 / 97.81% and 94.39 / 94.74%, so the band's upper edge and the
// adaptive floor sit about one standard error of 400 seeds from the
// expected values: a change that reshuffles which seeds are covered can
// move a verdict, and should be judged by rerunning with many more seeds,
// not by re-picking these.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "assess/backend.hpp"
#include "assess/exact.hpp"
#include "assess/verdict_cache.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/result_stats.hpp"
#include "sampling/sampler.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/vl2.hpp"

namespace recloud {
namespace {

constexpr std::size_t coverage_seeds = 400;
/// Batch length wherever V comes from replicates.
constexpr std::size_t replicate_batch_rounds = 64;

/// One tiny infrastructure with a 2-of-3 plan and its exact reliability.
/// Only the plan's hosts and the switches (minus `spared` kinds) can
/// fail, which keeps exact enumeration to a few hundred thousand states.
struct coverage_case {
    std::string family;
    built_topology topo;
    component_registry registry;
    verdict_support support;
    application app = application::k_of_n(2, 3);
    deployment_plan plan;
    double exact = 0.0;

    coverage_case(std::string name, built_topology built,
                  node_kind spared = node_kind::external)
        : family(std::move(name)),
          topo(std::move(built)),
          registry(topo.graph),
          support(topo, registry.size(), nullptr, nullptr) {
        const std::vector<node_id>& hosts = topo.hosts;
        plan.hosts = {hosts.front(), hosts[hosts.size() / 2], hosts.back()};
        std::size_t fallible = 0;
        for (component_id id = 0; id < topo.graph.node_count(); ++id) {
            const node_kind kind = topo.graph.kind(id);
            const bool planned = std::find(plan.hosts.begin(), plan.hosts.end(),
                                           id) != plan.hosts.end();
            if (planned || (is_switch(kind) && kind != spared)) {
                // Distinct probabilities give dagger cycles of 16 to 50.
                registry.set_probability(id, 0.02 + 0.01 * (id % 5));
                ++fallible;
            }
        }
        EXPECT_LE(fallible, 18u) << family;
        bfs_reachability oracle{topo};
        exact = exact_reliability(registry, nullptr, oracle, app, plan);
    }

    oracle_factory factory() const {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }
};

std::vector<std::unique_ptr<coverage_case>> coverage_cases() {
    std::vector<std::unique_ptr<coverage_case>> cases;
    cases.push_back(std::make_unique<coverage_case>(
        "leaf_spine",
        build_leaf_spine({.spines = 2, .leaves = 3, .hosts_per_leaf = 2,
                          .border_leaves = 1})));
    cases.push_back(std::make_unique<coverage_case>(
        "fat_tree", built_topology{fat_tree::build(4).topology()},
        node_kind::edge_switch));
    cases.push_back(std::make_unique<coverage_case>(
        "vl2", build_vl2({.intermediates = 2, .aggregations = 2, .tors = 3,
                          .hosts_per_tor = 2, .border_intermediates = 1})));
    cases.push_back(std::make_unique<coverage_case>(
        "bcube", build_bcube({.ports = 3, .levels = 1})));
    return cases;
}

/// Share of the fixed seeds whose reported interval holds the exact R.
/// `assess(backend, case)` runs one assessment on a freshly reset serial
/// backend that cuts every assessment into batches of `batch_rounds`.
template <typename Assess>
double coverage(const std::vector<std::unique_ptr<coverage_case>>& cases,
                sampler_kind kind, std::size_t batch_rounds, Assess assess) {
    std::vector<std::unique_ptr<failure_sampler>> samplers;
    std::vector<std::unique_ptr<parallel_backend>> backends;
    for (const auto& c : cases) {
        samplers.push_back(make_sampler(kind, c->registry.probabilities(), 0));
        verdict_cache_options cache;
        cache.enabled = true;
        cache.support = &c->support;
        backends.push_back(std::make_unique<parallel_backend>(
            c->registry.size(), nullptr, c->factory(), *samplers.back(),
            parallel_backend_options{.threads = 1,
                                     .batch_rounds = batch_rounds,
                                     .verdict_cache = cache}));
    }
    std::size_t covered = 0;
    for (std::size_t seed = 0; seed < coverage_seeds; ++seed) {
        const coverage_case& c = *cases[seed % cases.size()];
        parallel_backend& backend = *backends[seed % cases.size()];
        backend.reset_stream(7000 + seed);
        const assessment_stats stats = assess(backend, c);
        const double half = stats.ciw95 / 2.0;
        if (stats.reliability - half <= c.exact &&
            c.exact <= stats.reliability + half) {
            ++covered;
        }
    }
    return static_cast<double>(covered) / coverage_seeds;
}

/// Share of the fixed seeds covered by one assessment of `batches` batches
/// of `batch_rounds` rounds, each reporting `expected_replicates`.
double fixed_coverage(const std::vector<std::unique_ptr<coverage_case>>& cases,
                      sampler_kind kind, std::size_t batch_rounds,
                      std::size_t batches, std::size_t expected_replicates) {
    return coverage(cases, kind, batch_rounds,
                    [&](parallel_backend& backend, const coverage_case& c) {
                        const assessment_stats stats = backend.assess(
                            c.app, c.plan, batches * batch_rounds);
                        EXPECT_EQ(stats.replicates, expected_replicates)
                            << c.family;
                        return stats;
                    });
}

class CiwCoverage : public ::testing::TestWithParam<sampler_kind> {};

TEST_P(CiwCoverage, ReportedIntervalCoversExactReliability) {
    const auto cases = coverage_cases();
    for (const auto& c : cases) {
        // Away from 1, so that 2048 rounds see a dozen failures or more.
        EXPECT_GT(c->exact, 0.5) << c->family;
        EXPECT_LT(c->exact, 0.995) << c->family;
    }
    const double replicated =
        fixed_coverage(cases, GetParam(), replicate_batch_rounds, 64, 64);
    const double binomial = fixed_coverage(cases, GetParam(), 512, 4, 0);
    std::printf("coverage over %zu seeds: replicates %.4f, binomial %.4f\n",
                coverage_seeds, replicated, binomial);
    EXPECT_GE(replicated, 0.93);
    EXPECT_LE(replicated, 0.97);
    EXPECT_GE(binomial, 0.93);
}

TEST_P(CiwCoverage, AdaptiveStopCoversExactReliability) {
    // assess_until_ciw stops at the first epoch whose bound meets the
    // target, so among runs of equal length it keeps those whose V came
    // out low. The interval it stops with must still cover. The target is
    // the binomial bound of 4096 rounds at the exact R, which stops these
    // runs after 60 to 85 replicates on average.
    const auto cases = coverage_cases();
    std::size_t replicates = 0;
    const double covered = coverage(
        cases, GetParam(), replicate_batch_rounds,
        [&](parallel_backend& backend, const coverage_case& c) {
            const double target =
                4.0 * std::sqrt(c.exact * (1.0 - c.exact) / 4096.0);
            const assessment_stats stats = backend.assess_until_ciw(
                c.app, c.plan,
                {.target_ciw = target,
                 .initial_rounds = 10 * replicate_batch_rounds,
                 .max_rounds = 1'000 * replicate_batch_rounds});
            EXPECT_LE(stats.ciw95, target) << c.family;
            EXPECT_GE(stats.replicates, min_replicates) << c.family;
            replicates += stats.replicates;
            return stats;
        });
    const double mean_replicates =
        static_cast<double>(replicates) / coverage_seeds;
    std::printf("adaptive stop over %zu seeds: coverage %.4f, "
                "mean replicates %.1f\n",
                coverage_seeds, covered, mean_replicates);
    EXPECT_GE(mean_replicates, 20.0);
    EXPECT_LE(mean_replicates, 100.0);
    EXPECT_GE(covered, 0.93);
}

INSTANTIATE_TEST_SUITE_P(Samplers, CiwCoverage,
                         ::testing::Values(sampler_kind::monte_carlo,
                                           sampler_kind::extended_dagger),
                         [](const auto& info) {
                             return info.param == sampler_kind::monte_carlo
                                        ? "monte_carlo"
                                        : "extended_dagger";
                         });

}  // namespace
}  // namespace recloud
