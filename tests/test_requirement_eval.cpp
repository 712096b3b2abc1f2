#include "app/requirement_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "faults/component_registry.hpp"
#include "faults/fault_tree.hpp"
#include "faults/round_state.hpp"
#include "routing/fat_tree_routing.hpp"
#include "topology/fat_tree.hpp"

namespace recloud {
namespace {

/// k=4 fat-tree fixture with helpers to judge a round for a given app/plan.
struct eval_fixture {
    fat_tree ft = fat_tree::build(4);
    round_state rs{ft.graph().node_count(), nullptr};
    fat_tree_routing oracle{ft};

    bool judge(const application& app, const deployment_plan& plan,
               std::vector<component_id> failed) {
        requirement_evaluator evaluator{app, plan};
        rs.begin_round(failed);
        oracle.begin_round(rs);
        return evaluator.reliable_in_round(oracle, rs);
    }
};

TEST(RequirementEval, KOfNHealthyRoundIsReliable) {
    eval_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
}

TEST(RequirementEval, Figure2Scenario) {
    // N=2, K=1: one host dead, the other reachable -> reliable.
    eval_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));
    // Both dead -> unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, KOfNCountsExactThreshold) {
    eval_fixture f;
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0), f.ft.host(2, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));  // 2 alive = K
    EXPECT_FALSE(
        f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)}));  // 1 < K
}

TEST(RequirementEval, Figure6TwoLayerScenario) {
    // FE (2 instances, K_ext=1) + DB (2 instances, K_from_FE=1).
    eval_fixture f;
    const application app = application::layered(2, 1, 2);
    deployment_plan plan;
    const node_id fe1 = f.ft.host(0, 0, 0);
    const node_id fe2 = f.ft.host(1, 0, 0);
    const node_id db1 = f.ft.host(2, 0, 0);
    const node_id db2 = f.ft.host(2, 1, 0);
    plan.hosts = {fe1, fe2, db1, db2};

    EXPECT_TRUE(f.judge(app, plan, {}));
    // FE1 and DB2 dead, FE2 reaches DB1: still reliable (the figure's case).
    EXPECT_TRUE(f.judge(app, plan, {fe1, db2}));
    // Both FEs dead: frontend requirement fails.
    EXPECT_FALSE(f.judge(app, plan, {fe1, fe2}));
    // Both DBs dead: backend requirement fails even with FEs alive.
    EXPECT_FALSE(f.judge(app, plan, {db1, db2}));
}

TEST(RequirementEval, DbReachableOnlyFromDeadFeDoesNotCount) {
    // The paper requires DBs reachable from *alive* (border-reachable) FEs.
    // Put FE1 and DB1 in the same rack, isolate that rack from the border
    // (kill both its pod's agg switches... in k=4 a pod has 2 aggs).
    eval_fixture f;
    const application app = application::layered(2, 1, 2);
    const node_id fe1 = f.ft.host(0, 0, 0);
    const node_id db1 = f.ft.host(0, 0, 1);  // same rack as fe1
    const node_id fe2 = f.ft.host(1, 0, 0);
    const node_id db2 = f.ft.host(2, 0, 0);
    deployment_plan plan;
    plan.hosts = {fe1, fe2, db1, db2};

    // Kill pod 0's aggs: fe1/db1 can talk to each other (same rack) but are
    // cut off from the border. Kill db2: the only remaining DB is db1, which
    // is reachable only from the border-unreachable fe1 -> unreliable.
    EXPECT_FALSE(f.judge(app, plan,
                         {f.ft.aggregation(0, 0), f.ft.aggregation(0, 1), db2}));
    // Same failure but db2 alive: fe2 reaches db2 -> reliable.
    EXPECT_TRUE(
        f.judge(app, plan, {f.ft.aggregation(0, 0), f.ft.aggregation(0, 1)}));
}

TEST(RequirementEval, ThreeLayerChainPropagates) {
    eval_fixture f;
    const application app = application::layered(3, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0), f.ft.host(2, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Killing the middle layer severs the chain.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, MeshRequiresMutualReachability) {
    eval_fixture f;
    // 2 cores, no supports, 1-of-1 each.
    const application app = application::microservice(2, 0, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Kill one core instance: the other survives externally but loses its
    // mesh peer -> unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));
}

TEST(RequirementEval, MeshWithRedundancyToleratesOneLoss) {
    eval_fixture f;
    // 2 cores with 1-of-2 redundancy each.
    const application app = application::microservice(2, 0, 1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0),   // core0
                  f.ft.host(1, 0, 0), f.ft.host(1, 1, 0)};  // core1
    EXPECT_TRUE(f.judge(app, plan, {}));
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 1, 0)}));
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0)}));
}

TEST(RequirementEval, SupportOnlyNeedsItsOwnCore) {
    eval_fixture f;
    // 1 core (1-of-1) with 1 support (1-of-1).
    const application app = application::microservice(1, 1, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Kill the support's host: unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, FixpointStripsCascades) {
    // layer0 -> layer1 -> layer2, all 1-of-1, chained across pods. Cutting
    // layer1 from the border does NOT matter (only layer0 needs external),
    // but cutting layer1 from layer0 must cascade to layer2.
    eval_fixture f;
    const application app = application::layered(3, 1, 1);
    const node_id l0 = f.ft.host(0, 0, 0);
    const node_id l1 = f.ft.host(1, 0, 0);
    const node_id l2 = f.ft.host(1, 0, 1);  // same rack as l1
    deployment_plan plan;
    plan.hosts = {l0, l1, l2};
    // Isolate pod 1 entirely (both aggs): l1 unreachable from l0, so l2 is
    // unreachable from any functional l1 even though l1<->l2 still works.
    EXPECT_FALSE(
        f.judge(app, plan, {f.ft.aggregation(1, 0), f.ft.aggregation(1, 1)}));
}

// ---- the replica bound ------------------------------------------------------
//
// Each test pins one exit of the bound on the unclean path: it must decide an
// unreliable round before the oracle calls that the unbounded fixpoint would
// make, and a round that keeps exactly K must still pass.

/// Forwards to `inner` and records what the evaluator asks in a round.
class recording_oracle final : public reachability_oracle {
public:
    explicit recording_oracle(reachability_oracle& inner) : inner_(&inner) {}

    void begin_round(round_state& rs) override {
        inner_->begin_round(rs);
        border_asks = 0;
        pairs.clear();
    }
    bool border_reachable(node_id host) override {
        ++border_asks;
        return inner_->border_reachable(host);
    }
    bool host_to_host(node_id a, node_id b) override {
        pairs.emplace_back(a, b);
        return inner_->host_to_host(a, b);
    }

    std::size_t border_asks = 0;
    std::vector<std::pair<node_id, node_id>> pairs;

private:
    reachability_oracle* inner_;
};

/// A k=4 fat-tree whose hosts may share power supplies, judged through a
/// recording oracle on the unclean path.
struct bound_fixture {
    fat_tree ft = fat_tree::build(4);
    component_registry registry{ft.graph()};
    component_id supply = registry.add(component_kind::power_supply, "supply");
    fault_tree_forest forest{registry.size()};
    round_state rs{registry.size(), &forest};
    /// What the last judge() asked.
    std::size_t border_asks = 0;
    std::vector<std::pair<node_id, node_id>> pairs;

    bool judge(const application& app, const deployment_plan& plan,
               std::vector<component_id> failed) {
        fat_tree_routing routing{ft, nullptr, &forest};  // the forest as wired
        recording_oracle oracle{routing};
        requirement_evaluator evaluator{app, plan};
        rs.begin_round(failed);
        oracle.begin_round(rs);
        const bool reliable =
            evaluator.reliable_in_round(oracle, rs, round_class::unclean);
        border_asks = oracle.border_asks;
        pairs = std::move(oracle.pairs);
        return reliable;
    }
};

TEST(RequirementEval, BoundDecidesAtTheBaseStep) {
    // Two of three DB replicas share a supply. DB needs 2 reachable from the
    // frontends, so losing the supply leaves 1 < K on alive hosts.
    bound_fixture f;
    const application app = application::layered(2, 2, 3);
    const node_id db1 = f.ft.host(2, 0, 0);
    const node_id db2 = f.ft.host(2, 1, 0);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0), f.ft.host(1, 0, 0),
                  db1, db2, f.ft.host(1, 1, 0)};
    f.forest.attach(db1, f.forest.add_leaf(f.supply));
    f.forest.attach(db2, f.forest.add_leaf(f.supply));

    EXPECT_FALSE(f.judge(app, plan, {f.supply}));
    EXPECT_EQ(f.border_asks, 0u);
    EXPECT_TRUE(f.pairs.empty());
    // One DB host down keeps exactly K: the fixpoint runs and holds.
    EXPECT_TRUE(f.judge(app, plan, {db1}));
    EXPECT_GT(f.border_asks, 0u);
    EXPECT_FALSE(f.pairs.empty());
}

TEST(RequirementEval, BoundDecidesInsideTheFixpoint) {
    // layer0 -> layer1 -> layer2, 2-of-2 each, every host alive. A failed
    // edge switch cuts one layer1 replica off from layer0: the fixpoint
    // strips it, layer1 falls below K, and layer2 is never asked about.
    bound_fixture f;
    const application app = application::layered(3, 2, 2);
    const node_id cut = f.ft.host(1, 1, 0);
    const std::vector<node_id> layer2{f.ft.host(2, 0, 0), f.ft.host(2, 1, 0)};
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0),
                  f.ft.host(1, 0, 0), cut, layer2[0], layer2[1]};

    EXPECT_FALSE(f.judge(app, plan, {f.ft.edge_of_host(cut)}));
    EXPECT_EQ(f.border_asks, 2u);  // the base step passed
    ASSERT_FALSE(f.pairs.empty());
    for (const auto& [source, target] : f.pairs) {
        EXPECT_EQ(std::count(layer2.begin(), layer2.end(), target), 0)
            << "asked about layer2 host " << target;
    }
    // No failure: every layer keeps exactly K.
    EXPECT_TRUE(f.judge(app, plan, {}));
    EXPECT_TRUE(std::any_of(f.pairs.begin(), f.pairs.end(),
                            [&](const auto& pair) {
                                return pair.second == layer2[0];
                            }));
    // 1-of-2 layers: the same strip leaves layer1 at exactly K, and the
    // fixpoint goes on to layer2.
    EXPECT_TRUE(f.judge(application::layered(3, 1, 2), plan,
                        {f.ft.edge_of_host(cut)}));
}

TEST(RequirementEval, BoundDecidesOnASourceWithNoLiveInstance) {
    // "api" must be border-reachable and reachable from "cache". No
    // requirement targets cache, so only its need as a source bounds it:
    // with both cache hosts down, no border_reachable call is made.
    bound_fixture f;
    application app;
    const app_component_id cache = app.add_component("cache", 2);
    const app_component_id api = app.add_component("api", 2);
    app.require_external(api, 1);
    app.require_reachable(api, cache, 1);
    app.validate();
    const node_id cache1 = f.ft.host(0, 0, 0);
    const node_id cache2 = f.ft.host(1, 0, 0);
    deployment_plan plan;
    plan.hosts = {cache1, cache2, f.ft.host(2, 0, 0), f.ft.host(2, 1, 0)};

    EXPECT_FALSE(f.judge(app, plan, {cache1, cache2}));
    EXPECT_EQ(f.border_asks, 0u);
    EXPECT_TRUE(f.pairs.empty());
    // One cache host left meets the source's need of one.
    EXPECT_TRUE(f.judge(app, plan, {cache1}));
    EXPECT_EQ(f.border_asks, 2u);
}

}  // namespace
}  // namespace recloud
