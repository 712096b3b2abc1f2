// The pluggable assessment-backend layer (assess/backend.hpp): one batch
// scheme for every backend. Serial, parallel at any worker count and the
// engine over any transport return bit-identical stats for one (seed,
// batch_rounds) — the property that lets re_cloud keep its
// common-random-numbers guarantee whatever executes the rounds.
#include "assess/backend.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch_reference.hpp"
#include "core/recloud.hpp"
#include "exec/engine.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/injection.hpp"
#include "sampling/monte_carlo.hpp"
#include "sampling/result_stats.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

struct backend_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};

    backend_fixture() {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, 0.03);
            }
        }
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }

    deployment_plan plan_for(const application& app, std::size_t offset = 0) {
        deployment_plan plan;
        for (std::uint32_t i = 0; i < app.total_instances(); ++i) {
            plan.hosts.push_back(
                topo.hosts[(i * 5 + offset) % topo.hosts.size()]);
        }
        return plan;
    }
};

TEST(SerialBackend, MatchesFreeFunctionExactly) {
    // The serial backend is the one-worker batched backend, inline on the
    // caller's thread: the free round loop over the forked batches of
    // epoch 1, in turn, is exactly what it computes.
    backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);

    extended_dagger_sampler reference_sampler{f.registry.probabilities(), 21};
    round_state rs{f.registry.size(), &f.forest};
    bfs_reachability oracle{f.topo};
    result_accumulator expected;
    for (std::size_t b = 0; b * default_batch_rounds < 3000; ++b) {
        const auto substream = reference_sampler.fork(substream_id(1, b));
        const assessment_stats batch = assess_deployment(
            *substream, rs, oracle, app, plan,
            std::min(default_batch_rounds, 3000 - b * default_batch_rounds));
        expected.merge(batch.reliable, batch.rounds);
    }

    extended_dagger_sampler sampler{f.registry.probabilities(), 21};
    parallel_backend backend{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.threads = 1}};
    EXPECT_STREQ(backend.name(), "serial");
    const assessment_stats actual = backend.assess(app, plan, 3000);
    EXPECT_EQ(actual.rounds, expected.rounds());
    EXPECT_EQ(actual.reliable, expected.reliable_rounds());
}

TEST(ParallelBackend, BitIdenticalAcrossWorkerCounts) {
    backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);

    std::vector<assessment_stats> results;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 33};
        parallel_backend backend{f.registry.size(), &f.forest, f.factory(),
                                 sampler,
                                 {.threads = workers, .batch_rounds = 250}};
        results.push_back(backend.assess(app, plan, 3000));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].rounds, results[0].rounds);
        EXPECT_EQ(results[i].reliable, results[0].reliable);
        EXPECT_EQ(results[i].reliability, results[0].reliability);
        EXPECT_EQ(results[i].variance, results[0].variance);
        EXPECT_EQ(results[i].ciw95, results[0].ciw95);
    }
}

TEST(ParallelBackend, ConsecutiveAssessmentsStayDeterministic) {
    // Epochs advance the substream ids: assessment k must use fresh
    // randomness, but the SEQUENCE of assessments must replay identically
    // for any worker count.
    backend_fixture f;
    const application app = application::k_of_n(1, 2);
    const deployment_plan plan = f.plan_for(app);

    const auto run_sequence = [&](std::size_t workers) {
        extended_dagger_sampler sampler{f.registry.probabilities(), 5};
        parallel_backend backend{f.registry.size(), &f.forest, f.factory(),
                                 sampler,
                                 {.threads = workers, .batch_rounds = 128}};
        std::vector<std::size_t> reliable;
        for (int k = 0; k < 3; ++k) {
            reliable.push_back(backend.assess(app, plan, 1000).reliable);
        }
        return reliable;
    };
    const auto a = run_sequence(1);
    const auto b = run_sequence(4);
    EXPECT_EQ(a, b);
    // Different epochs sample different streams (fresh randomness per call).
    EXPECT_FALSE(a[0] == a[1] && a[1] == a[2]) << "suspiciously frozen stream";
}

TEST(ParallelBackend, MatchesSerialRouteAndCheckOnSameForkedStreams) {
    // Reproduce the backend's exact work serially through the documented
    // substream contract: batch b of epoch 1 draws fork(substream_id(1, b)).
    backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    const std::size_t rounds = 1000;
    const std::size_t batch_rounds = 256;

    extended_dagger_sampler sampler{f.registry.probabilities(), 77};
    parallel_backend backend{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.threads = 3, .batch_rounds = batch_rounds}};
    const assessment_stats parallel = backend.assess(app, plan, rounds);

    extended_dagger_sampler base{f.registry.probabilities(), 77};
    round_state rs{f.registry.size(), &f.forest};
    bfs_reachability oracle{f.topo};
    const assessment_stats serial = forked_batch_reference(
        base, 1, rs, oracle, app, plan, rounds, batch_rounds);
    EXPECT_EQ(parallel.rounds, serial.rounds);
    EXPECT_EQ(parallel.reliable, serial.reliable);
}

TEST(ParallelBackend, ResetStreamReplaysAssessments) {
    backend_fixture f;
    const application app = application::k_of_n(1, 2);
    const deployment_plan plan = f.plan_for(app);
    extended_dagger_sampler sampler{f.registry.probabilities(), 13};
    parallel_backend backend{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.threads = 2, .batch_rounds = 100}};
    const assessment_stats first = backend.assess(app, plan, 1500);
    backend.reset_stream(13);
    const assessment_stats replay = backend.assess(app, plan, 1500);
    EXPECT_EQ(first.reliable, replay.reliable);
    EXPECT_EQ(first.rounds, replay.rounds);
}

TEST(ParallelBackend, HandlesRoundCountEdgeCases) {
    backend_fixture f;
    const application app = application::k_of_n(1, 1);
    const deployment_plan plan = f.plan_for(app);
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    parallel_backend backend{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.threads = 4, .batch_rounds = 64}};
    EXPECT_EQ(backend.assess(app, plan, 0).rounds, 0u);
    EXPECT_EQ(backend.assess(app, plan, 1).rounds, 1u);       // fewer than workers
    EXPECT_EQ(backend.assess(app, plan, 1000).rounds, 1000u); // not divisible
}

TEST(ParallelBackend, RejectsNonForkableSampler) {
    backend_fixture f;
    scripted_sampler scripted{{{0}, {1}}};
    EXPECT_THROW(
        parallel_backend(f.registry.size(), &f.forest, f.factory(), scripted, {}),
        std::invalid_argument);
}

TEST(ParallelBackend, RejectsZeroBatchRounds) {
    backend_fixture f;
    extended_dagger_sampler sampler{f.registry.probabilities(), 3};
    EXPECT_THROW(parallel_backend(f.registry.size(), &f.forest, f.factory(),
                                  sampler, {.threads = 2, .batch_rounds = 0}),
                 std::invalid_argument);
}

TEST(ParallelBackend, AdaptiveAssessmentReachesTarget) {
    // The base-class assess_until_ciw() layers adaptive precision on every
    // backend; with the parallel one it must still converge and report
    // cumulative rounds.
    backend_fixture f;
    const application app = application::k_of_n(1, 3);
    const deployment_plan plan = f.plan_for(app);
    extended_dagger_sampler sampler{f.registry.probabilities(), 41};
    parallel_backend backend{f.registry.size(), &f.forest, f.factory(), sampler,
                             {.threads = 2, .batch_rounds = 500}};
    adaptive_assess_options options;
    options.target_ciw = 2e-2;
    options.initial_rounds = 500;
    options.max_rounds = 200'000;
    const assessment_stats stats = backend.assess_until_ciw(app, plan, options);
    EXPECT_LE(stats.ciw95, options.target_ciw);
    EXPECT_GE(stats.rounds, 500u);
}

TEST(EngineBackend, MatchesRawAssessmentEngine) {
    backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);

    extended_dagger_sampler raw_sampler{f.registry.probabilities(), 19};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             raw_sampler, {.workers = 2, .batch_rounds = 200}};
    const assessment_stats expected = engine.assess(app, plan, 2000);

    extended_dagger_sampler sampler{f.registry.probabilities(), 19};
    assessment_engine backend{f.registry.size(), &f.forest, f.factory(),
                              sampler, {.workers = 2, .batch_rounds = 200}};
    const assessment_stats actual = backend.assess(app, plan, 2000);
    EXPECT_EQ(actual.rounds, expected.rounds);
    EXPECT_EQ(actual.reliable, expected.reliable);
}

TEST(EngineBackend, ResetStreamReplaysAssessments) {
    // The backend holds a non-owning sampler pointer (see the lifetime
    // contract on its constructor); reset_stream must reach the *live*
    // sampler and rewind it — the scenario that would explode if the
    // pointer ever dangled.
    backend_fixture f;
    const application app = application::k_of_n(1, 2);
    const deployment_plan plan = f.plan_for(app);
    extended_dagger_sampler sampler{f.registry.probabilities(), 13};
    assessment_engine backend{f.registry.size(), &f.forest, f.factory(),
                              sampler, {.workers = 2, .batch_rounds = 100}};
    const assessment_stats first = backend.assess(app, plan, 1500);
    backend.reset_stream(13);
    const assessment_stats replay = backend.assess(app, plan, 1500);
    EXPECT_EQ(first.reliable, replay.reliable);
    EXPECT_EQ(first.rounds, replay.rounds);
}

// ---- the facade on top of the layer -------------------------------------

recloud_options facade_options(assessment_backend_kind backend,
                               std::size_t threads) {
    recloud_options o;
    o.assessment_rounds = 1000;
    o.max_iterations = 25;
    o.seed = 9;
    o.backend = backend;
    o.assessment_threads = threads;
    o.assessment_batch_rounds = 200;
    return o;
}

TEST(ReCloudBackend, ParallelSearchIsIdenticalForAnyThreadCount) {
    // The flagship property: find_deployment with the parallel backend walks
    // the EXACT same search trajectory whether 1 or 4 threads assess — CRN
    // comparisons, symmetry skips and the final plan all line up.
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    const auto run = [&](std::size_t threads) {
        re_cloud system{
            infra, facade_options(assessment_backend_kind::parallel, threads)};
        deployment_request request{application::k_of_n(2, 3), 1.0,
                                   std::chrono::seconds{20}};
        return system.find_deployment(request);
    };
    const deployment_response one = run(1);
    const deployment_response four = run(4);
    EXPECT_EQ(one.plan, four.plan);
    EXPECT_EQ(one.stats.reliability, four.stats.reliability);
    EXPECT_EQ(one.stats.reliable, four.stats.reliable);
    EXPECT_EQ(one.search.plans_evaluated, four.search.plans_evaluated);
    EXPECT_EQ(one.search.plans_generated, four.search.plans_generated);
}

TEST(ReCloudBackend, ParallelAssessAgreesWithConfiguredRounds) {
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    re_cloud system{infra,
                    facade_options(assessment_backend_kind::parallel, 2)};
    EXPECT_STREQ(system.backend().name(), "parallel");
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {infra.tree().host(0, 0, 0), infra.tree().host(1, 1, 1)};
    const assessment_stats stats = system.assess(app, plan, 2500);
    EXPECT_EQ(stats.rounds, 2500u);
    EXPECT_GT(stats.reliability, 0.5);
}

TEST(ReCloudBackend, EngineBackendRunsTheWorkflow) {
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    re_cloud system{infra, facade_options(assessment_backend_kind::engine, 2)};
    EXPECT_STREQ(system.backend().name(), "engine");
    deployment_request request{application::k_of_n(2, 3), 1.0,
                               std::chrono::seconds{20}};
    const deployment_response response = system.find_deployment(request);
    EXPECT_EQ(response.plan.hosts.size(), 3u);
    EXPECT_GT(response.stats.reliability, 0.5);
}

TEST(ReCloudBackend, EngineStreamSurvivesSearchEpochs) {
    // re_cloud owns the sampler in a member declared before the backend, so
    // the backend's raw sampler pointer stays valid for the facade's whole
    // life. Exercise the risky sequence: a full search (many reset_stream
    // epochs) followed by fresh standalone assessments through the same
    // backend, with recovery stats flowing the whole way.
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    re_cloud system{infra, facade_options(assessment_backend_kind::engine, 2)};
    deployment_request request{application::k_of_n(2, 3), 1.0,
                               std::chrono::seconds{20}};
    const deployment_response response = system.find_deployment(request);
    EXPECT_EQ(response.plan.hosts.size(), 3u);

    const assessment_stats after =
        system.assess(request.app, response.plan, 2000);
    EXPECT_EQ(after.rounds, 2000u);
    EXPECT_GT(after.reliability, 0.5);

    ASSERT_NE(system.execution_stats(), nullptr);
    EXPECT_GT(system.execution_stats()->batches, 0u);
    EXPECT_GT(system.execution_stats()->bytes_received, 0u);
    // Non-engine backends expose no execution stats.
    re_cloud parallel_system{
        infra, facade_options(assessment_backend_kind::parallel, 2)};
    EXPECT_EQ(parallel_system.execution_stats(), nullptr);
}

TEST(ReCloudBackend, SerialAndParallelSearchesAgreeOnPlanShape) {
    // Every backend samples the same batches, so the whole search —
    // trajectory, plan and final stats — is the same on each.
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    std::optional<deployment_response> serial;
    for (const auto kind : {assessment_backend_kind::serial,
                            assessment_backend_kind::parallel,
                            assessment_backend_kind::engine}) {
        re_cloud system{infra, facade_options(kind, 2)};
        deployment_request request{application::k_of_n(2, 3), 1.0,
                                   std::chrono::seconds{20}};
        const deployment_response response = system.find_deployment(request);
        EXPECT_EQ(response.plan.hosts.size(), 3u);
        EXPECT_GT(response.stats.reliability, 0.5);
        if (!serial) {
            EXPECT_STREQ(system.backend().name(), "serial");
            serial = response;
            continue;
        }
        SCOPED_TRACE(system.backend().name());
        EXPECT_EQ(response.plan, serial->plan);
        EXPECT_EQ(response.stats.reliable, serial->stats.reliable);
        EXPECT_EQ(response.stats.rounds, serial->stats.rounds);
        EXPECT_EQ(response.search.plans_evaluated,
                  serial->search.plans_evaluated);
        EXPECT_EQ(response.search.plans_generated,
                  serial->search.plans_generated);
    }
}

// ---- the contract: one batch scheme for every backend -------------------

/// A CRN sequence touching every part of the contract: a reset, several
/// epochs without one, a short last batch (1100 = 4 x 250 + 100), a reset
/// to another seed and back, and a plan the journals already saw. The last
/// two steps have 24 batches (5900 = 23 x 250 + 150), so V comes from the
/// batch replicates, the second through the journals' per-batch replay.
struct contract_step {
    std::optional<std::uint64_t> reset{};  ///< reset_stream() before the step
    std::size_t plan = 0;
    std::size_t rounds = 1100;
};

const std::vector<contract_step>& contract_sequence() {
    static const std::vector<contract_step> steps = {
        {.reset = 5, .plan = 0},  {.plan = 1},
        {.plan = 1, .rounds = 1030},  // epoch 3, a 30-round last batch
        {.reset = 5, .plan = 2},  {.reset = 9, .plan = 0},
        {.reset = 5, .plan = 3},  {.reset = 5, .plan = 0},
        {.reset = 11, .plan = 0, .rounds = 5900},
        {.reset = 11, .plan = 2, .rounds = 5900},
    };
    return steps;
}

constexpr std::size_t contract_batch_rounds = 250;

std::vector<assessment_stats> run_contract(
    assessment_backend& backend, const application& app,
    const std::vector<deployment_plan>& plans) {
    std::vector<assessment_stats> out;
    for (const contract_step& step : contract_sequence()) {
        if (step.reset) {
            backend.reset_stream(*step.reset);
        }
        out.push_back(backend.assess(app, plans[step.plan], step.rounds));
    }
    return out;
}

TEST(BackendContract, EveryBackendSamplesTheSameBatches) {
    backend_fixture f;
    const verdict_support support{f.topo, f.registry.size(), &f.forest,
                                  nullptr};
    using sampler_factory =
        std::function<std::unique_ptr<failure_sampler>(std::uint64_t)>;
    const std::vector<std::pair<const char*, sampler_factory>> samplers = {
        {"monte-carlo",
         [&](std::uint64_t seed) {
             return std::make_unique<monte_carlo_sampler>(
                 f.registry.probabilities(), seed);
         }},
        {"dagger",
         [&](std::uint64_t seed) {
             return std::make_unique<extended_dagger_sampler>(
                 f.registry.probabilities(), seed);
         }},
    };
    struct backend_spec {
        std::string label;
        std::function<std::unique_ptr<assessment_backend>(
            failure_sampler&, const verdict_cache_options&)>
            make;
    };
    std::vector<backend_spec> specs;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        specs.push_back(
            {threads == 1 ? "serial"
                          : "parallel(" + std::to_string(threads) + ")",
             [&f, threads](failure_sampler& sampler,
                           const verdict_cache_options& cache) {
                 return std::make_unique<parallel_backend>(
                     f.registry.size(), &f.forest, f.factory(), sampler,
                     parallel_backend_options{
                         .threads = threads,
                         .batch_rounds = contract_batch_rounds,
                         .verdict_cache = cache});
             }});
    }
    for (const auto& [transport, workers] :
         {std::pair{transport_kind::loopback, std::size_t{1}},
          std::pair{transport_kind::loopback, std::size_t{4}},
          std::pair{transport_kind::socket, std::size_t{2}}}) {
        specs.push_back(
            {std::string{"engine("} + to_string(transport) + ", " +
                 std::to_string(workers) + ")",
             [&f, transport, workers](failure_sampler& sampler,
                                      const verdict_cache_options& cache) {
                 engine_options options{.workers = workers,
                                        .batch_rounds = contract_batch_rounds,
                                        .verdict_cache = cache};
                 if (transport == transport_kind::socket) {
                     options.transport = transport_kind::socket;
                     options.socket.worker_binary = RECLOUD_WORKER_BIN;
                     options.topology = &f.topo;
                 }
                 return std::make_unique<assessment_engine>(
                     f.registry.size(), &f.forest, f.factory(), sampler,
                     options);
             }});
    }

    // A k-of-n app, and a microservice app (12 instances on distinct hosts)
    // whose internal requirements take the connected-round judge.
    const std::vector<std::pair<const char*, application>> apps = {
        {"2-of-3", application::k_of_n(2, 3)},
        {"microservice 2-1", application::microservice(2, 1, 2, 3)},
    };
    for (const auto& [app_name, app] : apps) {
        const std::vector<deployment_plan> plans = {
            f.plan_for(app, 0), f.plan_for(app, 1), f.plan_for(app, 2),
            f.plan_for(app, 7)};
        for (const auto& [sampler_name, make_sampler] : samplers) {
            // The reference: every step rebuilt from the forked batches of its
            // (seed, epoch), independently of any backend.
            std::vector<assessment_stats> expected;
            {
                round_state rs{f.registry.size(), &f.forest};
                bfs_reachability oracle{f.topo};
                std::uint64_t seed = 0;
                std::uint64_t epoch = 0;
                for (const contract_step& step : contract_sequence()) {
                    if (step.reset) {
                        seed = *step.reset;
                        epoch = 0;
                    }
                    const auto base = make_sampler(seed);
                    expected.push_back(forked_batch_reference(
                        *base, ++epoch, rs, oracle, app, plans[step.plan],
                        step.rounds, contract_batch_rounds));
                }
            }
            for (const backend_spec& spec : specs) {
                for (const bool cached : {false, true}) {
                    SCOPED_TRACE(std::string{app_name} + " " + sampler_name +
                                 " " + spec.label +
                                 (cached ? " cached" : " uncached"));
                    verdict_cache_options cache;
                    cache.enabled = cached;
                    cache.support = &support;
                    const auto sampler = make_sampler(1);
                    const auto backend = spec.make(*sampler, cache);
                    const std::vector<assessment_stats> got =
                        run_contract(*backend, app, plans);
                    ASSERT_EQ(got.size(), expected.size());
                    for (std::size_t i = 0; i < got.size(); ++i) {
                        SCOPED_TRACE("step " + std::to_string(i));
                        EXPECT_EQ(got[i].rounds, expected[i].rounds);
                        EXPECT_EQ(got[i].reliable, expected[i].reliable);
                        EXPECT_EQ(got[i].reliability, expected[i].reliability);
                        EXPECT_EQ(got[i].variance, expected[i].variance);
                        EXPECT_EQ(got[i].ciw95, expected[i].ciw95);
                        EXPECT_EQ(got[i].replicates, expected[i].replicates);
                    }
                    EXPECT_EQ(got.back().replicates, 24u);
                }
            }
        }
    }
}

TEST(BackendContract, DefaultBackendsShareOneBatchSize) {
    // Default-constructed backends obey the same contract: the engine and
    // the parallel backend cut the same batches.
    backend_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan = f.plan_for(app);
    EXPECT_EQ(engine_options{}.batch_rounds, default_batch_rounds);
    EXPECT_EQ(parallel_backend_options{}.batch_rounds, default_batch_rounds);
    EXPECT_EQ(recloud_options{}.assessment_batch_rounds, default_batch_rounds);

    extended_dagger_sampler parallel_sampler{f.registry.probabilities(), 3};
    parallel_backend parallel{f.registry.size(), &f.forest, f.factory(),
                              parallel_sampler, {.threads = 2}};
    extended_dagger_sampler engine_sampler{f.registry.probabilities(), 3};
    assessment_engine engine{f.registry.size(), &f.forest, f.factory(),
                             engine_sampler, {.workers = 2}};
    const std::size_t rounds = 3 * default_batch_rounds + 17;
    const assessment_stats a = parallel.assess(app, plan, rounds);
    const assessment_stats b = engine.assess(app, plan, rounds);
    EXPECT_EQ(a.reliable, b.reliable);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(engine.stats().batches, 4u);
}

TEST(BackendContract, EngineBackendRejectsNonForkableSampler) {
    backend_fixture f;
    scripted_sampler scripted{{{0}, {1}}};
    EXPECT_THROW(assessment_engine(f.registry.size(), &f.forest, f.factory(),
                                   scripted, {.workers = 1}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace recloud
