// Whole-system integration scenarios: dependency acquisition + link model +
// search + assessment working together across architectures, plus
// statistical cross-checks between independent paths through the system.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "assess/downtime.hpp"
#include "assess/exact.hpp"
#include "core/recloud.hpp"
#include "deps/hardware_inventory.hpp"
#include "deps/network_deps.hpp"
#include "deps/software_deps.hpp"
#include "batch_reference.hpp"
#include "exec/engine.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/extended_dagger.hpp"
#include "topology/bcube.hpp"
#include "topology/leaf_spine.hpp"

namespace recloud {
namespace {

TEST(Integration, FullDependencyStackOnLeafSpine) {
    // Build a provider environment with every dependency source at once:
    // power, links, firmware, software stacks, mined network services.
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 3, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    (void)attach_power_supplies(topo, registry, forest, {.supply_count = 3});
    const link_attachment links = attach_link_components(topo, registry);
    (void)survey_hardware(topo, registry, forest, {.firmware_versions = 2});
    const software_catalog catalog = generate_software_catalog(
        registry, {.packages = 15, .stacks = 2, .top_level_packages_per_stack = 2});
    (void)install_software(topo, catalog, forest);
    const network_services services =
        deploy_network_services(topo, registry, {.service_categories = 1});
    attach_mined_dependencies(
        mine_dependencies(synthesize_flows(topo, services, {}), 10), forest);

    rng random{3};
    assign_paper_probabilities(registry, random);
    workload_map workloads{topo, random};
    bfs_reachability oracle{topo, &links};

    const scenario_ptr snapshot = scenario_builder{}
                                      .topology(topo)
                                      .registry(registry)
                                      .forest(forest)
                                      .oracle(oracle)
                                      .workloads(workloads)
                                      .links(links)
                                      .freeze();

    recloud_options options;
    options.assessment_rounds = 2000;
    options.max_iterations = 40;
    options.multi_objective = true;
    re_cloud system{snapshot, options};

    deployment_request request;
    request.app = application::layered(2, 1, 2);
    request.desired_reliability = 0.5;  // the stack is heavy; modest target
    request.max_search_time = std::chrono::seconds{15};
    const deployment_response response = system.find_deployment(request);
    EXPECT_TRUE(response.fulfilled);
    EXPECT_EQ(response.plan.hosts.size(), 4u);
    EXPECT_GT(response.stats.reliability, 0.5);
    EXPECT_LT(response.stats.reliability, 1.0);
}

TEST(Integration, EngineAndAssessorAgreeWithLinksAndTrees) {
    // The MapReduce engine and the single-threaded assessor must produce
    // the identical reliable count on the identical forked batches, with
    // fault trees AND links in play.
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 3, .hosts_per_leaf = 2, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};
    (void)attach_power_supplies(topo, registry, forest, {.supply_count = 2});
    link_attachment links = attach_link_components(topo, registry);
    rng random{5};
    assign_paper_probabilities(registry, random);

    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {topo.hosts[0], topo.hosts[4]};

    extended_dagger_sampler serial_sampler{registry.probabilities(), 42};
    round_state rs{registry.size(), &forest};
    bfs_reachability serial_oracle{topo, &links};
    const assessment_stats serial = forked_batch_reference(
        serial_sampler, 1, rs, serial_oracle, app, plan, 3000, 97);

    extended_dagger_sampler engine_sampler{registry.probabilities(), 42};
    assessment_engine engine{
        registry.size(), &forest,
        [&] { return std::make_unique<bfs_reachability>(topo, &links); },
        engine_sampler, {.workers = 3, .batch_rounds = 97}};
    const assessment_stats parallel = engine.assess(app, plan, 3000);

    EXPECT_EQ(serial.reliable, parallel.reliable);
    EXPECT_EQ(serial.rounds, parallel.rounds);
}

TEST(Integration, SampledMatchesExactOnServerCentricTopology) {
    // BCube end-to-end: extended dagger sampling through the BFS oracle
    // must agree with exhaustive enumeration.
    built_topology topo = build_bcube({.ports = 3, .levels = 1,
                                       .border_switches = 1});
    component_registry registry{topo.graph};
    // Only 9 servers' own failures + 6 switches = 15 fallible components.
    double p = 0.03;
    for (component_id id = 0; id < registry.size(); ++id) {
        if (registry.kind(id) != component_kind::external) {
            registry.set_probability(id, p);
            p = p >= 0.06 ? 0.03 : p + 0.005;
        }
    }
    bfs_reachability oracle{topo};
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {topo.hosts[0], topo.hosts[4], topo.hosts[8]};

    const double truth =
        exact_reliability(registry, nullptr, oracle, app, plan);
    extended_dagger_sampler sampler{registry.probabilities(), 77};
    round_state rs{registry.size(), nullptr};
    const assessment_stats stats =
        assess_deployment(sampler, rs, oracle, app, plan, 30000);
    EXPECT_NEAR(stats.reliability, truth, 1.5 * stats.ciw95 + 1e-3);
}

TEST(Integration, SearchImprovesOverRandomPlansStatistically) {
    // The search's best plan should beat the average random plan under the
    // same CRN evaluation — a direct check that annealing actually climbs.
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    recloud_options options;
    options.assessment_rounds = 2000;
    options.max_iterations = 120;
    options.seed = 21;
    re_cloud system{infra, options};
    const application app = application::k_of_n(4, 5);
    deployment_request request;
    request.app = app;
    request.desired_reliability = 1.0;
    request.max_search_time = std::chrono::seconds{20};
    const deployment_response found = system.find_deployment(request);

    // Average reliability of 10 random plans.
    neighbor_generator gen{infra.topology(), anti_affinity::none, 5};
    double random_sum = 0.0;
    for (int i = 0; i < 10; ++i) {
        random_sum += system.assess(app, gen.initial_plan(5), 2000).reliability;
    }
    EXPECT_GE(found.stats.reliability + 0.004, random_sum / 10.0);
}

TEST(Integration, DowntimeRoundtripThroughTheFacade) {
    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    re_cloud system{infra, {.assessment_rounds = 2000, .max_iterations = 20}};
    deployment_request request;
    request.app = application::k_of_n(1, 2);
    request.desired_reliability = reliability_for_downtime(24.0 * 365.0);
    request.max_search_time = std::chrono::seconds{5};
    // Accepting a full year of downtime means any plan qualifies.
    const deployment_response response = system.find_deployment(request);
    EXPECT_TRUE(response.fulfilled);
}

}  // namespace
}  // namespace recloud
