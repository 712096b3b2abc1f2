// Cross-topology oracle invariants, swept over every builder in the
// library: with no failures everything is border-reachable and mutually
// reachable; under random failures host_to_host is symmetric; failed hosts
// are never reachable; border-reachable hosts can reach each other when
// connectivity is transitive (BFS oracle).
//
// ConnectedJudging checks the connected-round fast path on random inputs:
// in every round an oracle classifies clean or semi, the connected-round
// contract holds for random host pairs, and a verdict judged from the
// round's failures equals the pairwise verdict. It also pins the attachment
// closure the failure-driven path indexes, and the single failures at the
// closure's edges.
//
// BoundedUncleanMatchesUnboundedFixpoint checks the unclean path's replica
// bound the same way: on random apps, plans and rounds (sampled, one supply
// down, switch cuts with every host alive) its verdict equals a fixpoint
// with no bound, from no more oracle queries.
//
// The random checks are exact equalities, so they must hold for every seed:
// property_seed() reseeds them from RECLOUD_PROPERTY_SEED (property_seed.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "assess/verdict_cache.hpp"
#include "core/scenario.hpp"
#include "faults/component_registry.hpp"
#include "faults/fault_tree.hpp"
#include "faults/round_state.hpp"
#include "property_seed.hpp"
#include "routing/bfs_reachability.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/jellyfish.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/links.hpp"
#include "topology/power.hpp"
#include "topology/vl2.hpp"
#include "util/rng.hpp"

namespace recloud {
namespace {

struct topology_case {
    std::string label;
    std::function<built_topology()> build;
};

std::vector<topology_case> all_topologies() {
    return {
        {"fat_tree",
         [] {
             // Copy out of the temporary fat_tree wrapper.
             return built_topology{fat_tree::build(4).topology()};
         }},
        {"leaf_spine",
         [] {
             return build_leaf_spine({.spines = 2, .leaves = 4,
                                      .hosts_per_leaf = 3,
                                      .border_leaves = 1});
         }},
        {"vl2",
         [] {
             return build_vl2({.intermediates = 3, .aggregations = 4,
                               .tors = 6, .hosts_per_tor = 3,
                               .border_intermediates = 1});
         }},
        {"jellyfish",
         [] {
             return build_jellyfish({.switches = 12, .degree = 4,
                                     .hosts_per_switch = 2,
                                     .border_switches = 2, .seed = 3});
         }},
        {"bcube", [] { return build_bcube({.ports = 3, .levels = 1}); }},
        {"dcell", [] { return build_dcell({.servers_per_cell = 4}); }},
    };
}

class OracleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OracleProperty, HealthyStateFullyConnected) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rs.begin_round(std::vector<component_id>{});
    oracle.begin_round(rs);
    for (const node_id h : topo.hosts) {
        ASSERT_TRUE(oracle.border_reachable(h)) << tc.label << " host " << h;
    }
    ASSERT_TRUE(oracle.host_to_host(topo.hosts.front(), topo.hosts.back()));
}

TEST_P(OracleProperty, HostToHostIsSymmetricUnderRandomFailures) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    std::vector<double> probs(topo.graph.node_count(), 0.15);
    probs[topo.external] = 0.0;
    monte_carlo_sampler sampler{probs, property_seed(11 + GetParam())};
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rng pick{property_seed(7)};
    std::vector<component_id> failed;
    for (int round = 0; round < 80; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        for (int probe = 0; probe < 6; ++probe) {
            const node_id a = topo.hosts[pick.uniform_below(topo.hosts.size())];
            const node_id b = topo.hosts[pick.uniform_below(topo.hosts.size())];
            ASSERT_EQ(oracle.host_to_host(a, b), oracle.host_to_host(b, a))
                << tc.label;
        }
    }
}

TEST_P(OracleProperty, FailedHostsAreNeverReachable) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    const node_id victim = topo.hosts[0];
    rs.begin_round(std::vector<component_id>{victim});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(victim)) << tc.label;
    for (const node_id other : topo.hosts) {
        if (other != victim) {
            ASSERT_FALSE(oracle.host_to_host(victim, other)) << tc.label;
        }
    }
}

TEST_P(OracleProperty, ConnectivityIsTransitiveThroughBorderSide) {
    // For the BFS oracle (plain connectivity), two hosts that both reach
    // the border side can reach each other: the external node links their
    // floods into one component.
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    std::vector<double> probs(topo.graph.node_count(), 0.2);
    probs[topo.external] = 0.0;
    monte_carlo_sampler sampler{probs, property_seed(31 + GetParam())};
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rng pick{property_seed(13)};
    std::vector<component_id> failed;
    for (int round = 0; round < 60; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        const node_id a = topo.hosts[pick.uniform_below(topo.hosts.size())];
        const node_id b = topo.hosts[pick.uniform_below(topo.hosts.size())];
        if (oracle.border_reachable(a) && oracle.border_reachable(b)) {
            ASSERT_TRUE(oracle.host_to_host(a, b)) << tc.label;
        }
    }
}

// ---- connected judging == pairwise judging ---------------------------------

/// Forwards every query to `inner` but keeps the base classify_round, which
/// classifies nothing: a round judged through it takes the pairwise path.
/// Counts the queries it forwards.
class pairwise_only final : public reachability_oracle {
public:
    explicit pairwise_only(reachability_oracle& inner) : inner_(&inner) {}

    void begin_round(round_state& rs) override { inner_->begin_round(rs); }
    void begin_round(round_state& rs,
                     std::span<const node_id> query_hosts) override {
        inner_->begin_round(rs, query_hosts);
    }
    bool border_reachable(node_id host) override {
        ++queries;
        return inner_->border_reachable(host);
    }
    bool host_to_host(node_id a, node_id b) override {
        ++queries;
        return inner_->host_to_host(a, b);
    }

    std::size_t queries = 0;

private:
    reachability_oracle* inner_;
};

/// A random mesh: 2-6 components of 1-3 replicas. Component 0 is a pure
/// source: it needs nothing and no requirement targets it, so instances of
/// it that are alive but detached stay functional on the pairwise path.
application random_mesh(rng& random) {
    application app;
    const auto count = static_cast<std::uint32_t>(2 + random.uniform_below(5));
    for (std::uint32_t c = 0; c < count; ++c) {
        app.add_component(std::to_string(c),
                          static_cast<std::uint32_t>(1 + random.uniform_below(3)));
    }
    const auto replicas = [&](app_component_id c) {
        return app.components()[c].replicas;
    };
    const auto pick_k = [&](app_component_id c) {
        return static_cast<std::uint32_t>(1 + random.uniform_below(replicas(c)));
    };
    app.require_reachable(1, 0, pick_k(1));
    for (app_component_id target = 1; target < count; ++target) {
        if (random.uniform() < 0.4) {
            app.require_external(target, pick_k(target));
        }
        for (app_component_id source = 0; source < count; ++source) {
            if (source != target && random.uniform() < 0.3) {
                app.require_reachable(target, source, pick_k(target));
            }
        }
    }
    app.validate();
    return app;
}

/// One of the paper's structures or a random mesh, with at most
/// `max_instances` instances.
application random_app(rng& random, std::size_t max_instances) {
    while (true) {
        const auto n = static_cast<std::uint32_t>(1 + random.uniform_below(4));
        const auto k = static_cast<std::uint32_t>(1 + random.uniform_below(n));
        application app;
        switch (random.uniform_below(4)) {
            case 0:
                app = application::k_of_n(k, n);
                break;
            case 1:
                app = application::layered(
                    static_cast<std::uint32_t>(2 + random.uniform_below(3)), k, n);
                break;
            case 2:
                app = application::microservice(
                    static_cast<std::uint32_t>(1 + random.uniform_below(3)),
                    static_cast<std::uint32_t>(random.uniform_below(3)), k, n);
                break;
            default:
                app = random_mesh(random);
                break;
        }
        if (app.total_instances() <= max_instances) {
            return app;
        }
    }
}

/// A validated plan on distinct random hosts.
deployment_plan random_plan(rng& random, const application& app,
                            const built_topology& topo) {
    std::vector<node_id> hosts = topo.hosts;
    for (std::size_t i = hosts.size(); i > 1; --i) {
        std::swap(hosts[i - 1], hosts[random.uniform_below(i)]);
    }
    deployment_plan plan;
    plan.hosts.assign(hosts.begin(), hosts.begin() + app.total_instances());
    validate_plan(plan, app, topo);
    return plan;
}

struct judged_app {
    application app;
    deployment_plan plan;
    std::unique_ptr<requirement_evaluator> evaluator;
};

std::vector<judged_app> random_apps(rng& random, const built_topology& topo,
                                    int count) {
    std::vector<judged_app> apps(static_cast<std::size_t>(count));
    for (judged_app& j : apps) {
        j.app = random_app(random, topo.hosts.size());
        j.plan = random_plan(random, j.app, topo);
        j.evaluator = std::make_unique<requirement_evaluator>(j.app, j.plan);
    }
    return apps;
}

/// Random distinct host pairs of one round must satisfy the connected-round
/// contract; `reference` (when given) decides reachability independently.
void check_contract(rng& random, const built_topology& topo,
                    reachability_oracle& oracle,
                    reachability_oracle* reference, const std::string& label) {
    for (int probe = 0; probe < 24; ++probe) {
        const node_id a = topo.hosts[random.uniform_below(topo.hosts.size())];
        const node_id b = topo.hosts[random.uniform_below(topo.hosts.size())];
        if (a == b) {
            continue;
        }
        const bool both = oracle.border_reachable(a) && oracle.border_reachable(b);
        ASSERT_EQ(oracle.host_to_host(a, b), both)
            << label << " hosts " << a << ", " << b;
        if (reference != nullptr) {
            ASSERT_EQ(reference->border_reachable(a), oracle.border_reachable(a))
                << label << " host " << a;
            ASSERT_EQ(reference->host_to_host(a, b), both)
                << label << " hosts " << a << ", " << b;
        }
    }
}

TEST(ConnectedJudging, FatTreeWithLinksAndForestMatchesPairwiseAndBfs) {
    // The infrastructure builder's k=8 fat-tree with every link fallible and
    // its power-supply forest, on the same oracle the scenario builds.
    infrastructure_options options;
    options.model_link_failures = true;
    const auto infra = fat_tree_infrastructure::build(8, options);
    const built_topology& topo = infra.topology();
    fat_tree_routing oracle{infra.tree(), infra.links(), &infra.forest()};
    bfs_reachability reference{topo, infra.links()};
    pairwise_only pairwise{oracle};
    pairwise_only pairwise_reference{reference};
    round_state rs{infra.registry().size(), &infra.forest()};

    rng random{property_seed(2024)};
    std::vector<judged_app> apps = random_apps(random, topo, 16);
    std::size_t connected_rounds = 0;
    std::size_t unclean_rounds = 0;
    for (const double rate : {0.0005, 0.003, 0.01, 0.03}) {
        // Hosts fail often, so connected rounds strip whole components.
        std::vector<double> probs(infra.registry().size(), 0.0);
        for (component_id c = 0; c < probs.size(); ++c) {
            if (infra.registry().probability(c) > 0.0) {
                probs[c] = rate;
            }
        }
        for (const node_id host : topo.hosts) {
            probs[host] = 0.1;
        }
        monte_carlo_sampler sampler{probs, property_seed(77)};
        std::vector<component_id> failed;
        for (int round = 0; round < 150; ++round) {
            sampler.next_round(failed);
            rs.begin_round(failed);
            oracle.begin_round(rs);
            reference.begin_round(rs);
            const round_class cls = oracle.classify_round(failed);
            const std::string label =
                "rate " + std::to_string(rate) + " round " + std::to_string(round);
            if (connected(cls)) {
                ++connected_rounds;
                check_contract(random, topo, oracle, &reference, label);
                if (HasFatalFailure()) {
                    return;
                }
            } else {
                ++unclean_rounds;
            }
            for (judged_app& j : apps) {
                const bool fast = cached_reliable_in_round(
                    nullptr, failed, rs, oracle, j.plan, *j.evaluator);
                ASSERT_EQ(fast, cached_reliable_in_round(nullptr, failed, rs,
                                                         pairwise, j.plan,
                                                         *j.evaluator))
                    << label;
                if (connected(cls)) {
                    ASSERT_EQ(fast, cached_reliable_in_round(
                                        nullptr, failed, rs, pairwise_reference,
                                        j.plan, *j.evaluator))
                        << label;
                }
            }
        }
    }
    // The rates span both kinds of round.
    EXPECT_GT(connected_rounds, 100u);
    EXPECT_GT(unclean_rounds, 100u);
}

/// {host} + the host's fault-tree leaves + verdict_support's
/// host_attachment(host): the closure the failure-driven path must index.
std::vector<component_id> expected_closure(const verdict_support& support,
                                           const fault_tree_forest* forest,
                                           node_id host) {
    std::vector<component_id> expected{host};
    if (forest != nullptr) {
        for (const component_id leaf : forest->dependencies_of(host)) {
            expected.push_back(leaf);
        }
    }
    for (const component_id id : support.host_attachment(host)) {
        expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    return expected;
}

TEST(ConnectedJudging, AttachmentClosureIsTheHostAttachmentPlusTheHost) {
    // One definition of attachment: the closure each oracle names equals
    // what the verdict cache's semi retention keys on, plus the host and its
    // own leaves.
    std::vector<component_id> closure;
    for (const topology_case& tc : all_topologies()) {
        const built_topology topo = tc.build();
        component_registry registry{topo.graph};
        const link_attachment links = attach_link_components(topo, registry);
        for (const link_attachment* consulted :
             {static_cast<const link_attachment*>(nullptr), &links}) {
            const verdict_support support{topo, registry.size(), nullptr,
                                          consulted};
            const bfs_reachability oracle{topo, consulted};
            for (const node_id host : topo.hosts) {
                attachment_closure(oracle, nullptr, host, closure);
                ASSERT_EQ(closure, expected_closure(support, nullptr, host))
                    << tc.label << (consulted ? " links" : "") << " host "
                    << host;
            }
        }
    }

    infrastructure_options options;
    options.model_link_failures = true;
    const auto infra = fat_tree_infrastructure::build(8, options);
    const built_topology& topo = infra.topology();
    const fault_tree_forest* forest = &infra.forest();
    const verdict_support support{topo, infra.registry().size(), forest,
                                  infra.links()};
    const fat_tree_routing fat_tree_oracle{infra.tree(), infra.links(), forest};
    const bfs_reachability bfs_oracle{topo, infra.links()};
    for (const node_id host : topo.hosts) {
        const std::vector<component_id> expected =
            expected_closure(support, forest, host);
        ASSERT_GE(expected.size(), 4u) << "host " << host;  // + a supply
        attachment_closure(fat_tree_oracle, forest, host, closure);
        ASSERT_EQ(closure, expected) << "fat_tree_routing host " << host;
        attachment_closure(bfs_oracle, forest, host, closure);
        ASSERT_EQ(closure, expected) << "bfs_reachability host " << host;
    }
}

TEST(ConnectedJudging, SingleFailuresAtTheClosureEdgeMatchPairwise) {
    // A k=4 fat-tree with every link fallible and a forest of two private
    // supplies: one feeds plan host H, the other H's edge switch. Each round
    // fails one component; the verdict judged from the failures must equal
    // the pairwise one through both oracles.
    const fat_tree tree = fat_tree::build(4);
    const built_topology& topo = tree.topology();
    component_registry registry{topo.graph};
    const link_attachment links = attach_link_components(topo, registry);
    const node_id host = tree.host(0, 0, 0);
    const node_id edge = tree.edge_of_host(host);
    const component_id host_supply =
        registry.add(component_kind::power_supply, "host-supply");
    const component_id edge_supply =
        registry.add(component_kind::power_supply, "edge-supply");
    fault_tree_forest forest{registry.size()};
    forest.attach(host, forest.add_leaf(host_supply));
    forest.attach(edge, forest.add_leaf(edge_supply));
    const component_id uplink =
        links.component_of_edge[topo.graph.edge_id(host, edge)];
    const component_id outside = tree.core(0, 0);

    fat_tree_routing fat_tree_oracle{tree, &links, &forest};
    bfs_reachability bfs_oracle{topo, &links};
    round_state rs{registry.size(), &forest};

    // H and hosts in other racks; every app needs H attached.
    const std::vector<node_id> hosts{host, tree.host(1, 0, 0),
                                     tree.host(2, 0, 0), tree.host(1, 1, 0)};
    std::vector<judged_app> apps;
    apps.reserve(3);  // each evaluator points into its judged_app
    for (application app : {application::k_of_n(3, 3),
                            application::layered(2, 2, 2),
                            application::microservice(1, 1, 2, 2)}) {
        judged_app& j = apps.emplace_back();
        j.app = std::move(app);
        j.plan.hosts.assign(hosts.begin(),
                            hosts.begin() + j.app.total_instances());
        validate_plan(j.plan, j.app, topo);
        j.evaluator = std::make_unique<requirement_evaluator>(j.app, j.plan);
    }
    std::vector<component_id> closure;
    for (const node_id h : hosts) {
        attachment_closure(fat_tree_oracle, &forest, h, closure);
        ASSERT_FALSE(std::binary_search(closure.begin(), closure.end(),
                                        outside));
    }

    struct single_failure {
        std::string label;
        component_id id;
        bool host_detached;
    };
    const std::vector<single_failure> failures{
        {"host power leaf", host_supply, true},
        {"edge power leaf", edge_supply, true},
        {"uplink link", uplink, true},
        {"outside every closure", outside, false},
    };
    const std::vector<std::pair<std::string, reachability_oracle*>> oracles{
        {"fat_tree_routing", &fat_tree_oracle}, {"bfs_reachability", &bfs_oracle}};
    std::vector<std::string> connected_rounds;
    for (const single_failure& f : failures) {
        const std::vector<component_id> failed{f.id};
        for (const auto& [name, oracle] : oracles) {
            const std::string label = f.label + " under " + name;
            pairwise_only pairwise{*oracle};
            rs.begin_round(failed);
            oracle->begin_round(rs);
            if (connected(oracle->classify_round(failed))) {
                connected_rounds.push_back(label);
            }
            for (judged_app& j : apps) {
                const bool fast = cached_reliable_in_round(
                    nullptr, failed, rs, *oracle, j.plan, *j.evaluator);
                EXPECT_EQ(fast, cached_reliable_in_round(nullptr, failed, rs,
                                                         pairwise, j.plan,
                                                         *j.evaluator))
                    << label;
                EXPECT_EQ(fast, !f.host_detached) << label;
            }
        }
    }
    // The failure-driven path judges the rounds that matter: a failed host
    // stays attached under bfs, a cut uplink is semi under the closed form.
    const auto judged_connected = [&](const std::string& label) {
        return std::find(connected_rounds.begin(), connected_rounds.end(),
                         label) != connected_rounds.end();
    };
    EXPECT_TRUE(judged_connected("host power leaf under bfs_reachability"));
    EXPECT_TRUE(judged_connected("uplink link under fat_tree_routing"));
    EXPECT_TRUE(judged_connected("outside every closure under fat_tree_routing"));
}

/// Judges `apps` through `oracle` and through its pairwise_only wrapper on
/// rounds where component c fails with probability rate * weights[c], at
/// three rates; the verdicts must agree. Counts the connected rounds into
/// `connected_rounds`.
void judge_both_ways(rng& random, const built_topology& topo,
                     reachability_oracle& oracle, round_state& rs,
                     std::vector<judged_app>& apps,
                     const std::vector<double>& weights,
                     std::uint64_t sampler_seed, const std::string& label,
                     std::size_t& connected_rounds) {
    pairwise_only pairwise{oracle};
    for (const double rate : {0.01, 0.05, 0.15}) {
        std::vector<double> probs(weights.size());
        for (std::size_t c = 0; c < probs.size(); ++c) {
            probs[c] = rate * weights[c];
        }
        monte_carlo_sampler sampler{probs, sampler_seed};
        std::vector<component_id> failed;
        for (int round = 0; round < 100; ++round) {
            sampler.next_round(failed);
            rs.begin_round(failed);
            oracle.begin_round(rs);
            const round_class cls = oracle.classify_round(failed);
            const std::string where = label + " rate " + std::to_string(rate) +
                                      " round " + std::to_string(round);
            if (connected(cls)) {
                ++connected_rounds;
                check_contract(random, topo, oracle, nullptr, where);
                if (::testing::Test::HasFatalFailure()) {
                    return;
                }
            }
            for (judged_app& j : apps) {
                ASSERT_EQ(cached_reliable_in_round(nullptr, failed, rs, oracle,
                                                   j.plan, *j.evaluator),
                          cached_reliable_in_round(nullptr, failed, rs, pairwise,
                                                   j.plan, *j.evaluator))
                    << where;
            }
        }
    }
}

TEST_P(OracleProperty, ConnectedJudgingMatchesPairwise) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    rng random{property_seed(101 + GetParam())};
    std::vector<judged_app> apps = random_apps(random, topo, 12);

    // Node failures only.
    {
        round_state rs{topo.graph.node_count(), nullptr};
        bfs_reachability oracle{topo};
        std::vector<double> weights(topo.graph.node_count(), 1.0);
        weights[topo.external] = 0.0;
        std::size_t connected_rounds = 0;
        judge_both_ways(random, topo, oracle, rs, apps, weights,
                        property_seed(41 + GetParam()), tc.label + " nodes",
                        connected_rounds);
        if (HasFatalFailure()) {
            return;
        }
        EXPECT_GT(connected_rounds, 0u) << tc.label;
    }
    // Nodes and links fail: a multi-homed host (BCube, DCell) keeps its
    // attachment through any one surviving link.
    {
        component_registry registry{topo.graph};
        const link_attachment links = attach_link_components(topo, registry);
        round_state rs{registry.size(), nullptr};
        bfs_reachability oracle{topo, &links};
        std::vector<double> weights(registry.size(), 1.0);
        weights[topo.external] = 0.0;
        std::size_t connected_rounds = 0;
        judge_both_ways(random, topo, oracle, rs, apps, weights,
                        property_seed(43 + GetParam()), tc.label + " links",
                        connected_rounds);
        EXPECT_GT(connected_rounds, 0u) << tc.label;
    }
}

// ---- the replica bound == the unbounded fixpoint ---------------------------

/// The semantics of application.hpp with no bound: base functional state,
/// one external pass, internal strips until stable, then the K checks.
bool unbounded_fixpoint(const application& app, const deployment_plan& plan,
                        reachability_oracle& oracle, round_state& rs) {
    std::vector<std::uint8_t> functional(plan.hosts.size());
    for (std::size_t i = 0; i < plan.hosts.size(); ++i) {
        functional[i] = rs.failed(plan.hosts[i]) ? 0 : 1;
    }
    const auto instances = [&](app_component_id c) {
        const std::uint32_t begin = app.instance_offset(c);
        return std::pair{begin, begin + app.components()[c].replicas};
    };
    for (const reachability_requirement& req : app.requirements()) {
        const auto [begin, end] = instances(req.target);
        for (std::uint32_t i = begin; i < end && !req.source; ++i) {
            if (functional[i] != 0 && !oracle.border_reachable(plan.hosts[i])) {
                functional[i] = 0;
            }
        }
    }
    for (bool changed = true; changed;) {
        changed = false;
        for (const reachability_requirement& req : app.requirements()) {
            if (!req.source) {
                continue;
            }
            const auto [t_begin, t_end] = instances(req.target);
            const auto [s_begin, s_end] = instances(*req.source);
            for (std::uint32_t i = t_begin; i < t_end; ++i) {
                bool reached = false;
                for (std::uint32_t j = s_begin; j < s_end && !reached; ++j) {
                    reached = functional[j] != 0 && functional[i] != 0 &&
                              oracle.host_to_host(plan.hosts[j], plan.hosts[i]);
                }
                if (functional[i] != 0 && !reached) {
                    functional[i] = 0;
                    changed = true;
                }
            }
        }
    }
    for (const reachability_requirement& req : app.requirements()) {
        const auto [begin, end] = instances(req.target);
        if (std::count(functional.begin() + begin, functional.begin() + end,
                       std::uint8_t{1}) < req.min_reachable) {
            return false;
        }
    }
    return true;
}

struct bound_tally {
    std::size_t reliable = 0;
    std::size_t unreliable = 0;
    std::size_t fewer_queries = 0;  ///< verdicts the bound reached sooner
};

/// Judges `apps` on the unclean path in each of `rounds` through each of
/// `oracles`: every verdict must equal unbounded_fixpoint's, from no more
/// oracle queries.
void judge_bounded(const std::vector<std::vector<component_id>>& rounds,
                   const std::vector<reachability_oracle*>& oracles,
                   round_state& rs, std::vector<judged_app>& apps,
                   const std::string& label, bound_tally& tally) {
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        rs.begin_round(rounds[r]);
        for (reachability_oracle* oracle : oracles) {
            oracle->begin_round(rs);
            pairwise_only counted{*oracle};
            for (judged_app& j : apps) {
                counted.queries = 0;
                const bool bounded = j.evaluator->reliable_in_round(
                    counted, rs, round_class::unclean);
                const std::size_t bounded_queries = counted.queries;
                counted.queries = 0;
                ASSERT_EQ(bounded, unbounded_fixpoint(j.app, j.plan, counted, rs))
                    << label << " round " << r;
                ASSERT_LE(bounded_queries, counted.queries)
                    << label << " round " << r;
                ++(bounded ? tally.reliable : tally.unreliable);
                tally.fewer_queries += bounded_queries < counted.queries ? 1 : 0;
            }
        }
    }
}

/// Sampled rounds (every fallible component at two rates), each supply down
/// alone, and switch cuts that leave every host alive.
std::vector<std::vector<component_id>> bound_rounds(
    rng& random, const built_topology& topo, std::size_t component_count,
    const std::vector<component_id>& supplies) {
    std::vector<std::vector<component_id>> rounds;
    for (const double rate : {0.01, 0.05}) {
        std::vector<double> probs(component_count, rate);
        probs[topo.external] = 0.0;
        monte_carlo_sampler sampler{probs, random()};
        for (int round = 0; round < 60; ++round) {
            sampler.next_round(rounds.emplace_back());
        }
    }
    for (const component_id supply : supplies) {
        rounds.push_back({supply});
    }
    for (int round = 0; round < 30; ++round) {
        std::vector<component_id>& cut = rounds.emplace_back();
        for (node_id n = 0; n < topo.graph.node_count(); ++n) {
            if (is_switch(topo.graph.kind(n)) && random.uniform() < 0.3) {
                cut.push_back(n);
            }
        }
    }
    return rounds;
}

TEST(RequirementEval, BoundedUncleanMatchesUnboundedFixpoint) {
    rng random{property_seed(2306)};
    bound_tally tally;
    // Every family with power supplies, with and without fallible links.
    for (const topology_case& tc : all_topologies()) {
        for (const bool with_links : {false, true}) {
            const built_topology topo = tc.build();
            component_registry registry{topo.graph};
            fault_tree_forest forest{topo.graph.node_count()};
            const power_assignment power = attach_power_supplies(
                topo, registry, forest, {.supply_count = 3});
            std::optional<link_attachment> links;
            if (with_links) {
                links = attach_link_components(topo, registry);
            }
            bfs_reachability oracle{topo, links ? &*links : nullptr};
            round_state rs{registry.size(), &forest};
            std::vector<judged_app> apps = random_apps(random, topo, 8);
            judge_bounded(
                bound_rounds(random, topo, registry.size(), power.supplies),
                {&oracle}, rs, apps, tc.label + (with_links ? " links" : ""),
                tally);
            if (HasFatalFailure()) {
                return;
            }
        }
    }

    // The k=8 fat-tree with links and forest through both oracles, plus
    // rounds that cut whole core groups.
    infrastructure_options options;
    options.model_link_failures = true;
    const auto infra = fat_tree_infrastructure::build(8, options);
    const built_topology& topo = infra.topology();
    fat_tree_routing fat_tree_oracle{infra.tree(), infra.links(),
                                     &infra.forest()};
    bfs_reachability bfs_oracle{topo, infra.links()};
    round_state rs{infra.registry().size(), &infra.forest()};
    std::vector<judged_app> apps = random_apps(random, topo, 12);
    std::vector<std::vector<component_id>> rounds = bound_rounds(
        random, topo, infra.registry().size(), infra.power().supplies);
    const int groups = infra.tree().group_width();
    for (int round = 0; round < 20; ++round) {
        std::vector<component_id>& cut = rounds.emplace_back();
        for (int group = 0; group < groups; ++group) {
            if (random.uniform() < 0.5) {
                for (int i = 0; i < groups; ++i) {
                    cut.push_back(infra.tree().core(group, i));
                }
            }
        }
    }
    judge_bounded(rounds, {&fat_tree_oracle, &bfs_oracle}, rs, apps,
                  "fat_tree k=8", tally);
    if (HasFatalFailure()) {
        return;
    }
    // The inputs reach both verdicts, and the bound decides some of them.
    EXPECT_GT(tally.reliable, 0u);
    EXPECT_GT(tally.unreliable, 0u);
    EXPECT_GT(tally.fewer_queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, OracleProperty,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& info) {
                             return all_topologies()[info.param].label;
                         });

}  // namespace
}  // namespace recloud
