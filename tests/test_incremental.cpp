// Cross-plan incremental assessment (DESIGN.md §11): the swap-delta
// retention rule in verdict_cache::bind, the oracle cleanliness classifiers
// it rests on, the CRN round journal of every worker of the batched backend,
// and — the load-bearing property — bit-identical assessment_stats and
// search trajectories with the verdict cache (cross-plan retention plus
// journal replay) on or off, across samplers, backends, worker counts and
// transports. The uncached judge is route-and-check itself, so it is the
// reference every equivalence check compares against.
#include "assess/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assess/backend.hpp"
#include "core/recloud.hpp"
#include "core/scenario.hpp"
#include "exec/engine.hpp"
#include "faults/probability_model.hpp"
#include "obs/metrics.hpp"
#include "property_seed.hpp"
#include "routing/bfs_reachability.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/monte_carlo.hpp"
#include "search/neighbor.hpp"
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

struct incr_fixture {
    built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 4, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    fault_tree_forest forest{topo.graph.node_count()};

    explicit incr_fixture(double probability = 0.03) {
        for (component_id id = 0; id < registry.size(); ++id) {
            if (registry.kind(id) != component_kind::external) {
                registry.set_probability(id, probability);
            }
        }
    }

    oracle_factory factory() {
        return [this] { return std::make_unique<bfs_reachability>(topo); };
    }

    /// Plans differing by `offset` visit entirely different host subsets —
    /// the worst case for slot-wise retention, the common case for the
    /// journal's dirty-round detection.
    deployment_plan plan_for(const application& app, std::size_t offset = 0) {
        deployment_plan plan;
        for (std::uint32_t i = 0; i < app.total_instances(); ++i) {
            plan.hosts.push_back(
                topo.hosts[(i * 5 + offset) % topo.hosts.size()]);
        }
        return plan;
    }

    verdict_support support() {
        return verdict_support{topo, registry.size(), &forest, nullptr};
    }
};

void expect_identical(const assessment_stats& a, const assessment_stats& b) {
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.reliable, b.reliable);
    EXPECT_EQ(a.reliability, b.reliability);
    EXPECT_EQ(a.variance, b.variance);
    EXPECT_EQ(a.ciw95, b.ciw95);
    EXPECT_EQ(a.replicates, b.replicates);
}

// ---- neighbor swap hint --------------------------------------------------

TEST(NeighborSwap, LastSwapReportsSingleSlotMove) {
    incr_fixture f;
    neighbor_generator gen{f.topo, anti_affinity::none, 42};
    EXPECT_EQ(gen.last_swap(), nullptr);
    const deployment_plan plan = gen.initial_plan(4);
    EXPECT_EQ(gen.last_swap(), nullptr);

    const deployment_plan next = gen.neighbor_of(plan);
    const plan_swap* swap = gen.last_swap();
    ASSERT_NE(swap, nullptr);
    ASSERT_LT(swap->slot, plan.hosts.size());
    EXPECT_EQ(plan.hosts[swap->slot], swap->old_host);
    EXPECT_EQ(next.hosts[swap->slot], swap->new_host);
    EXPECT_NE(swap->old_host, swap->new_host);
    for (std::size_t i = 0; i < plan.hosts.size(); ++i) {
        if (i != swap->slot) {
            EXPECT_EQ(plan.hosts[i], next.hosts[i]) << "slot " << i;
        }
    }
    // A fresh initial plan is not a single-slot move: the hint dies with it.
    (void)gen.initial_plan(4);
    EXPECT_EQ(gen.last_swap(), nullptr);
}

// ---- cleanliness classifiers vs ground truth -----------------------------

/// Ground truth for a claimed-clean round: "fully connected for any plan"
/// means every host of the topology — alive, or failed but counterfactually
/// revived — can reach the border and every other such host. A false claim
/// here would let a retained verdict go wrong under some future plan.
void expect_clean_claim_holds(reachability_oracle& oracle,
                              const built_topology& topo,
                              const std::vector<component_id>& failed) {
    round_state rs{topo.graph.node_count(), nullptr};
    rs.begin_round(failed);
    oracle.begin_round(rs);
    std::vector<node_id> alive;
    for (const node_id host : topo.hosts) {
        if (rs.failed(host)) {
            continue;
        }
        alive.push_back(host);
        EXPECT_TRUE(oracle.border_reachable(host))
            << "alive host " << host << " unreachable in a clean round";
    }
    for (std::size_t a = 0; a < alive.size(); ++a) {
        for (std::size_t b = a + 1; b < alive.size(); ++b) {
            EXPECT_TRUE(oracle.host_to_host(alive[a], alive[b]))
                << "clean round, hosts " << alive[a] << " <-> " << alive[b];
        }
    }
    // Counterfactual: a failed host's unreachability must be exactly its own
    // failure — revive it (alone) and it must be fully connected again.
    for (const node_id host : topo.hosts) {
        if (!rs.failed(host)) {
            continue;
        }
        std::vector<component_id> revived;
        for (const component_id id : failed) {
            if (id != host) {
                revived.push_back(id);
            }
        }
        const auto fresh = oracle.clone();
        round_state rs2{topo.graph.node_count(), nullptr};
        rs2.begin_round(revived);
        fresh->begin_round(rs2);
        EXPECT_TRUE(fresh->border_reachable(host))
            << "revived host " << host << " unreachable in a clean round";
        if (!alive.empty()) {
            EXPECT_TRUE(fresh->host_to_host(host, alive.front()));
        }
    }
}

TEST(CleanClassifier, FatTreeMatchesGroundTruth) {
    const fat_tree tree = fat_tree::build(4);
    fat_tree_routing oracle{tree};
    const built_topology& topo = tree.topology();
    round_state rs{topo.graph.node_count(), nullptr};

    const auto classify = [&](const std::vector<component_id>& failed) {
        rs.begin_round(failed);
        oracle.begin_round(rs);
        return oracle.classify_round(failed) == round_class::clean;
    };

    // Directed cases (k=4: two core groups). One failure anywhere inside a
    // single group leaves the other group carrying all traffic: clean.
    EXPECT_TRUE(classify({}));
    EXPECT_TRUE(classify({tree.core(0, 0)}));
    EXPECT_TRUE(classify({tree.aggregation(0, 0)}));
    EXPECT_TRUE(classify({tree.host(0, 0, 0)}));
    EXPECT_TRUE(classify({tree.core(0, 0), tree.core(0, 1), tree.host(1, 1, 0)}));
    // Edge switches strand their rack; a failure in EVERY group leaves no
    // untouched group; the external node is never classifiable.
    EXPECT_FALSE(classify({tree.edge(0, 0)}));
    EXPECT_FALSE(classify({tree.core(0, 0), tree.core(1, 0)}));
    EXPECT_FALSE(classify({tree.core(0, 0), tree.border(1)}));
    EXPECT_FALSE(classify({tree.external()}));

    // Pseudo-random sweeps: every clean claim must survive the ground-truth
    // connectivity check (false negatives are safe, false positives are not).
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::size_t clean_seen = 0;
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<component_id> failed;
        const std::size_t count = 1 + next() % 4;
        for (std::size_t i = 0; i < count; ++i) {
            const component_id id =
                static_cast<component_id>(next() % topo.graph.node_count());
            if (std::find(failed.begin(), failed.end(), id) == failed.end()) {
                failed.push_back(id);
            }
        }
        if (classify(failed)) {
            ++clean_seen;
            expect_clean_claim_holds(oracle, topo, failed);
        }
    }
    EXPECT_GT(clean_seen, 0u) << "classifier never fired - test is vacuous";
}

TEST(CleanClassifier, FatTreeSemiRefinement) {
    const fat_tree tree = fat_tree::build(4);
    fat_tree_routing oracle{tree};
    const built_topology& topo = tree.topology();
    round_state rs{topo.graph.node_count(), nullptr};

    const auto classify = [&](const std::vector<component_id>& failed) {
        rs.begin_round(failed);
        oracle.begin_round(rs);
        return oracle.classify_round(failed);
    };

    EXPECT_EQ(classify({}), round_class::clean);
    EXPECT_EQ(classify({tree.core(0, 0)}), round_class::clean);
    EXPECT_EQ(classify({tree.host(0, 0, 0)}), round_class::clean);
    // An edge switch detaches exactly its own rack: semi, not clean.
    EXPECT_EQ(classify({tree.edge(0, 0)}), round_class::semi);
    EXPECT_EQ(classify({tree.edge(0, 0), tree.core(1, 1)}), round_class::semi);
    EXPECT_EQ(classify({tree.edge(0, 0), tree.edge(1, 1)}), round_class::semi);
    // ... but only while one core group stays completely untouched.
    EXPECT_EQ(classify({tree.edge(0, 0), tree.core(0, 0), tree.core(1, 0)}),
              round_class::unclean);
    EXPECT_EQ(classify({tree.external()}), round_class::unclean);

    // Ground truth behind the semi claim: with an edge switch down, every
    // other rack's host stays border-reachable and pairwise reachable, and
    // the stranded rack is exactly the failed switch's own.
    const std::vector<component_id> failed = {tree.edge(0, 0)};
    rs.begin_round(failed);
    oracle.begin_round(rs);
    std::vector<node_id> attached;
    for (const node_id host : topo.hosts) {
        if (tree.edge_of_host(host) == tree.edge(0, 0)) {
            EXPECT_FALSE(oracle.border_reachable(host));
        } else {
            EXPECT_TRUE(oracle.border_reachable(host));
            attached.push_back(host);
        }
    }
    ASSERT_GE(attached.size(), 2u);
    for (std::size_t a = 0; a < attached.size(); a += 3) {
        for (std::size_t b = a + 1; b < attached.size(); b += 3) {
            EXPECT_TRUE(oracle.host_to_host(attached[a], attached[b]));
        }
    }
}

TEST(CleanClassifier, BfsMatchesGroundTruth) {
    incr_fixture f;
    bfs_reachability oracle{f.topo};
    round_state rs{f.topo.graph.node_count(), nullptr};

    const auto classify = [&](const std::vector<component_id>& failed) {
        rs.begin_round(failed);
        oracle.begin_round(rs);
        return oracle.classify_round(failed) == round_class::clean;
    };

    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);
    const auto leaves = f.topo.graph.nodes_of_kind(node_kind::edge_switch);
    ASSERT_GE(spines.size(), 2u);
    EXPECT_TRUE(classify({}));
    EXPECT_TRUE(classify({spines[0]}));  // the second spine carries everything
    EXPECT_TRUE(classify({spines[1], f.topo.hosts[3]}));
    EXPECT_FALSE(classify({spines[0], spines[1]}));  // partitioned
    for (const node_id leaf : leaves) {
        EXPECT_FALSE(classify({leaf})) << "leaf " << leaf
                                       << " strands its rack";
    }

    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::size_t clean_seen = 0;
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<component_id> failed;
        const std::size_t count = 1 + next() % 3;
        for (std::size_t i = 0; i < count; ++i) {
            const component_id id =
                static_cast<component_id>(next() % f.topo.graph.node_count());
            if (std::find(failed.begin(), failed.end(), id) == failed.end()) {
                failed.push_back(id);
            }
        }
        if (classify(failed)) {
            ++clean_seen;
            expect_clean_claim_holds(oracle, f.topo, failed);
        }
    }
    EXPECT_GT(clean_seen, 0u);
}

TEST(CleanClassifier, BfsHintTruncatedFloodStillClassifiesExactly) {
    // The classifier needs the whole external flood, but the assessment seam
    // begins rounds with the plan-hosts hint (which lets the flood stop
    // early). settle_external_flood must finish the frontier before judging
    // cleanliness — and later whole-round queries must match a fresh oracle
    // that never truncated.
    incr_fixture f;
    const std::vector<node_id> hint = {f.topo.hosts[0], f.topo.hosts[5]};
    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);
    const auto leaves = f.topo.graph.nodes_of_kind(node_kind::edge_switch);
    std::vector<std::vector<component_id>> cases = {
        {},
        {spines[0]},
        {spines[1]},
        {leaves[1]},
        {spines[0], leaves[2]},
        {f.topo.hosts[0]},
        {spines[0], spines[1]},
    };
    for (const auto& failed : cases) {
        bfs_reachability hinted{f.topo};
        round_state rs{f.topo.graph.node_count(), nullptr};
        rs.begin_round(failed);
        hinted.begin_round(rs, std::span<const node_id>{hint});

        bfs_reachability full{f.topo};
        round_state rs2{f.topo.graph.node_count(), nullptr};
        rs2.begin_round(failed);
        full.begin_round(rs2);

        EXPECT_EQ(hinted.classify_round(failed), full.classify_round(failed));
        for (const node_id host : f.topo.hosts) {
            EXPECT_EQ(hinted.border_reachable(host),
                      full.border_reachable(host))
                << "host " << host;
        }
        // Same failed set again (the reuse path): answers must not drift.
        rs.begin_round(failed);
        hinted.begin_round(rs, std::span<const node_id>{hint});
        for (const node_id host : f.topo.hosts) {
            EXPECT_EQ(hinted.border_reachable(host),
                      full.border_reachable(host))
                << "reused flood, host " << host;
        }
    }
}

// ---- warm rebind mechanics ----------------------------------------------

TEST(WarmRebind, RetainsCleanDeltaDisjointEntriesOnly) {
    incr_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support, 1 << 16, /*cross_plan=*/true};
    EXPECT_TRUE(cache.cross_plan());

    const application app = application::k_of_n(2, 3);
    const deployment_plan plan_a = f.plan_for(app);
    deployment_plan plan_b = plan_a;
    node_id fresh_host = invalid_node;
    for (const node_id h : f.topo.hosts) {
        if (std::find(plan_a.hosts.begin(), plan_a.hosts.end(), h) ==
            plan_a.hosts.end()) {
            fresh_host = h;
            break;
        }
    }
    ASSERT_NE(fresh_host, invalid_node);
    plan_b.hosts[0] = fresh_host;

    cache.bind(app, plan_a);
    EXPECT_EQ(cache.stats().cold_rebinds, 1u);  // first bind is always cold

    const node_id spine =
        f.topo.graph.nodes_of_kind(node_kind::core_switch)[0];
    const node_id leaf = f.topo.graph.nodes_of_kind(node_kind::edge_switch)[0];
    const std::vector<component_id> clean_key = {spine};
    const std::vector<component_id> unclean_key = {leaf};
    const std::vector<component_id> delta_key = {spine, plan_a.hosts[0]};
    const std::vector<component_id> none;

    EXPECT_FALSE(cache.lookup(clean_key).hit);
    cache.store(true, round_class::clean);
    EXPECT_FALSE(cache.lookup(unclean_key).hit);
    cache.store(false, round_class::unclean);
    EXPECT_FALSE(cache.lookup(delta_key).hit);
    cache.store(true, round_class::clean);  // clean, key meets the delta
    EXPECT_FALSE(cache.lookup(none).hit);
    cache.store(true, round_class::clean);
    EXPECT_EQ(cache.entries(), 3u);

    cache.bind(app, plan_b);
    EXPECT_EQ(cache.stats().warm_rebinds, 1u);
    EXPECT_EQ(cache.stats().cold_rebinds, 1u);
    EXPECT_EQ(cache.stats().retained_entries, 1u);  // {spine} alone survives

    auto hit = cache.lookup(clean_key);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.verdict);
    EXPECT_EQ(cache.stats().cross_plan_hits, 1u);

    EXPECT_FALSE(cache.lookup(unclean_key).hit);  // unclean: dropped
    cache.store(false, round_class::unclean);
    // {spine, old_host}: the departed host left the support, so the key now
    // FILTERS to {spine} — and must serve the retained {spine} verdict, not
    // the dropped two-component one.
    auto refiltered = cache.lookup(delta_key);
    EXPECT_TRUE(refiltered.hit);
    EXPECT_TRUE(refiltered.verdict);
    ASSERT_EQ(cache.last_key().size(), 1u);
    EXPECT_EQ(cache.last_key()[0], spine);
    // The arriving host is new support: its signature has never been judged.
    std::vector<component_id> new_key = {spine, fresh_host};
    EXPECT_FALSE(cache.lookup(new_key).hit);
    cache.store(false, round_class::unclean);
    // The empty class was stored clean, so it survives the swap too.
    const std::uint64_t empty_hits_before = cache.stats().empty_hits;
    auto empty = cache.lookup(none);
    EXPECT_TRUE(empty.hit);
    EXPECT_TRUE(empty.verdict);
    EXPECT_EQ(cache.stats().empty_hits, empty_hits_before + 1);
}

TEST(WarmRebind, SemiEntriesDropOnlyOnAttachmentOverlap) {
    incr_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support, 1 << 16, /*cross_plan=*/true};

    const application app = application::k_of_n(2, 3);
    const deployment_plan plan_a = f.plan_for(app);
    deployment_plan plan_b = plan_a;
    node_id fresh_host = invalid_node;
    for (const node_id h : f.topo.hosts) {
        if (std::find(plan_a.hosts.begin(), plan_a.hosts.end(), h) ==
            plan_a.hosts.end()) {
            fresh_host = h;
            break;
        }
    }
    ASSERT_NE(fresh_host, invalid_node);
    plan_b.hosts[0] = fresh_host;

    // Attachment components of the changed hosts: their leaf switches
    // (support has no links or fault-tree dependencies here).
    const node_id old_leaf = f.topo.graph.neighbors(plan_a.hosts[0])[0];
    const node_id new_leaf = f.topo.graph.neighbors(fresh_host)[0];
    EXPECT_EQ(support.host_attachment(fresh_host).size(), 1u);
    EXPECT_EQ(support.host_attachment(fresh_host)[0], new_leaf);
    node_id other_leaf = invalid_node;
    for (const node_id leaf :
         f.topo.graph.nodes_of_kind(node_kind::edge_switch)) {
        if (leaf != old_leaf && leaf != new_leaf) {
            other_leaf = leaf;
            break;
        }
    }
    ASSERT_NE(other_leaf, invalid_node);
    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);

    cache.bind(app, plan_a);
    const std::vector<component_id> unrelated = {other_leaf};
    const std::vector<component_id> touched = {new_leaf};
    const std::vector<component_id> with_old_host = {other_leaf,
                                                     plan_a.hosts[0]};
    const std::vector<component_id> clean_with_attachment = {new_leaf,
                                                             spines[0]};
    EXPECT_FALSE(cache.lookup(unrelated).hit);
    cache.store(true, round_class::semi);
    EXPECT_FALSE(cache.lookup(touched).hit);
    cache.store(false, round_class::semi);
    EXPECT_FALSE(cache.lookup(with_old_host).hit);
    cache.store(true, round_class::semi);
    EXPECT_FALSE(cache.lookup(clean_with_attachment).hit);
    cache.store(true, round_class::clean);

    cache.bind(app, plan_b);
    EXPECT_EQ(cache.stats().warm_rebinds, 1u);
    // Survivors: `unrelated` (semi, disjoint) and the clean entry. The
    // other two semi entries met the attachment / core delta.
    EXPECT_EQ(cache.stats().retained_entries, 2u);
    EXPECT_TRUE(cache.lookup(unrelated).hit);
    EXPECT_FALSE(cache.lookup(touched).hit);
    cache.store(false, round_class::semi);
    EXPECT_FALSE(cache.lookup(std::vector<component_id>{other_leaf,
                                                        fresh_host})
                     .hit);
    cache.store(true, round_class::semi);
    // Attachment components never invalidate CLEAN entries: a clean round
    // has no attachment failures, so its verdict cannot depend on them.
    EXPECT_TRUE(cache.lookup(clean_with_attachment).hit);
}

TEST(WarmRebind, PathologicalChurnFallsBackToEpochWipe) {
    // An oracle that classifies nothing as clean (the default base-class
    // answer) must degrade cross-plan mode to exactly the old behavior:
    // every rebind wipes, nothing is retained, nothing is served stale.
    incr_fixture f;
    const verdict_support support = f.support();
    verdict_cache cache{support, 1 << 16, /*cross_plan=*/true};
    const application app = application::k_of_n(2, 3);
    cache.bind(app, f.plan_for(app, 0));

    const auto spines = f.topo.graph.nodes_of_kind(node_kind::core_switch);
    const std::vector<component_id> spine_a = {spines[0]};
    const std::vector<component_id> spine_b = {spines[1]};
    const std::vector<component_id> none;
    for (std::size_t offset = 1; offset <= 4; ++offset) {
        EXPECT_FALSE(cache.lookup(spine_a).hit);
        cache.store(true, round_class::unclean);
        EXPECT_FALSE(cache.lookup(spine_b).hit);
        cache.store(false, round_class::unclean);
        EXPECT_FALSE(cache.lookup(none).hit);
        cache.store(true, round_class::unclean);

        cache.bind(app, f.plan_for(app, offset));
        EXPECT_EQ(cache.entries(), 0u) << "offset " << offset;
    }
    EXPECT_EQ(cache.stats().warm_rebinds, 4u);
    EXPECT_EQ(cache.stats().retained_entries, 0u);
    EXPECT_EQ(cache.stats().cross_plan_hits, 0u);

    // An application-shape change can never rebind warm.
    const application other = application::k_of_n(1, 2);
    cache.bind(other, f.plan_for(other));
    EXPECT_EQ(cache.stats().cold_rebinds, 2u);
}

// ---- equivalence: cached == uncached, bit for bit ------------------------

/// The CRN shape of the annealing inner loop: reset to a pinned seed, assess
/// a plan, move to the next plan. Includes a same-plan re-assessment WITHOUT
/// a reset (epoch 2: a journal of epoch 1 must not answer it).
template <typename Backend>
std::vector<assessment_stats> run_crn_sequence(
    Backend& backend, const application& app,
    const std::vector<deployment_plan>& plans, std::size_t rounds) {
    std::vector<assessment_stats> out;
    backend.reset_stream(5);
    out.push_back(backend.assess(app, plans[0], rounds));
    backend.reset_stream(5);
    out.push_back(backend.assess(app, plans[1], rounds));
    out.push_back(backend.assess(app, plans[1], rounds));  // no reset: epoch 2
    backend.reset_stream(5);
    out.push_back(backend.assess(app, plans[2], rounds));
    backend.reset_stream(7);  // different stream: journal must not apply
    out.push_back(backend.assess(app, plans[0], rounds));
    backend.reset_stream(5);
    out.push_back(backend.assess(app, plans[3], rounds));
    return out;
}

TEST(IncrementalEquivalence, SerialMultiPlanAcrossSamplers) {
    incr_fixture f;
    const application app = application::k_of_n(2, 3);
    const std::vector<deployment_plan> plans = {
        f.plan_for(app, 0), f.plan_for(app, 1), f.plan_for(app, 2),
        f.plan_for(app, 7)};
    const verdict_support support = f.support();
    const auto make = [&](int kind) -> std::unique_ptr<failure_sampler> {
        switch (kind) {
            case 0:
                return std::make_unique<monte_carlo_sampler>(
                    f.registry.probabilities(), 57);
            default:
                return std::make_unique<extended_dagger_sampler>(
                    f.registry.probabilities(), 57);
        }
    };
    // Uncached (ground truth), then cached: cross-plan retention plus
    // journal replay.
    for (int kind = 0; kind < 2; ++kind) {
        std::optional<std::vector<assessment_stats>> reference;
        for (const bool cached : {false, true}) {
            auto sampler = make(kind);
            verdict_cache_options options;
            options.enabled = cached;
            options.support = &support;
            parallel_backend backend{
                f.registry.size(), &f.forest, f.factory(), *sampler,
                {.threads = 1, .verdict_cache = options}};
            const auto stats = run_crn_sequence(backend, app, plans, 1500);
            if (!reference) {
                reference = stats;
            } else {
                ASSERT_EQ(stats.size(), reference->size());
                for (std::size_t i = 0; i < stats.size(); ++i) {
                    SCOPED_TRACE("sampler " + std::to_string(kind) +
                                 " cached " + std::to_string(cached) +
                                 " step " + std::to_string(i));
                    expect_identical(stats[i], (*reference)[i]);
                }
            }
            if (cached) {
                ASSERT_NE(backend.cache_stats(), nullptr);
                EXPECT_GT(backend.cache_stats()->warm_rebinds, 0u);
                EXPECT_GT(backend.cache_stats()->retained_entries, 0u);
                EXPECT_GT(backend.cache_stats()->cross_plan_hits, 0u);
            }
        }
    }
}

TEST(IncrementalEquivalence, ParallelAcrossWorkerCounts) {
    incr_fixture f;
    const application app = application::k_of_n(2, 3);
    const std::vector<deployment_plan> plans = {
        f.plan_for(app, 0), f.plan_for(app, 1), f.plan_for(app, 2),
        f.plan_for(app, 7)};
    const verdict_support support = f.support();
    std::optional<std::vector<assessment_stats>> reference;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        for (const bool cached : {false, true}) {
            extended_dagger_sampler sampler{f.registry.probabilities(), 33};
            parallel_backend_options options{.threads = workers,
                                             .batch_rounds = 250};
            options.verdict_cache.enabled = cached;
            options.verdict_cache.support = &support;
            parallel_backend backend{f.registry.size(), &f.forest, f.factory(),
                                     sampler, options};
            const auto stats = run_crn_sequence(backend, app, plans, 2000);
            if (!reference) {
                reference = stats;
            } else {
                ASSERT_EQ(stats.size(), reference->size());
                for (std::size_t i = 0; i < stats.size(); ++i) {
                    SCOPED_TRACE("workers " + std::to_string(workers) +
                                 " cached " + std::to_string(cached) +
                                 " step " + std::to_string(i));
                    expect_identical(stats[i], (*reference)[i]);
                }
            }
            if (cached) {
                ASSERT_NE(backend.cache_stats(), nullptr);
                EXPECT_GT(backend.cache_stats()->warm_rebinds, 0u);
            }
        }
    }
}

TEST(IncrementalEquivalence, EngineAcrossTransports) {
    incr_fixture f;
    const application app = application::k_of_n(2, 3);
    const std::vector<deployment_plan> plans = {
        f.plan_for(app, 0), f.plan_for(app, 1), f.plan_for(app, 2),
        f.plan_for(app, 7)};
    const verdict_support support = f.support();
    std::optional<std::vector<assessment_stats>> reference;
    for (const bool socket : {false, true}) {
        for (const bool cached : {false, true}) {
            extended_dagger_sampler sampler{f.registry.probabilities(), 19};
            engine_options options{.workers = 2, .batch_rounds = 200};
            options.verdict_cache.enabled = cached;
            options.verdict_cache.support = &support;
            if (socket) {
                options.transport = transport_kind::socket;
                options.socket.worker_binary = RECLOUD_WORKER_BIN;
                options.topology = &f.topo;
            }
            assessment_engine backend{f.registry.size(), &f.forest,
                                      f.factory(), sampler, options};
            const auto stats = run_crn_sequence(backend, app, plans, 1000);
            if (!reference) {
                reference = stats;
            } else {
                ASSERT_EQ(stats.size(), reference->size());
                for (std::size_t i = 0; i < stats.size(); ++i) {
                    SCOPED_TRACE(std::string("transport ") +
                                 (socket ? "socket" : "loopback") +
                                 " cached " + std::to_string(cached) +
                                 " step " + std::to_string(i));
                    expect_identical(stats[i], (*reference)[i]);
                }
            }
            // Counter visibility: loopback sums its live worker caches;
            // socket worker counters live in the worker processes and are
            // not shipped back (bit-identity above is the real property).
            if (cached && !socket) {
                ASSERT_NE(backend.cache_stats(), nullptr);
                EXPECT_GT(backend.cache_stats()->warm_rebinds, 0u);
            }
        }
    }
}

// ---- pinned search trajectories ------------------------------------------

void expect_same_search(const deployment_response& on,
                        const deployment_response& off) {
    EXPECT_EQ(on.plan, off.plan);
    expect_identical(on.stats, off.stats);
    EXPECT_EQ(on.search.plans_evaluated, off.search.plans_evaluated);
    EXPECT_EQ(on.search.plans_generated, off.search.plans_generated);
    EXPECT_EQ(on.search.symmetric_skips, off.search.symmetric_skips);
    EXPECT_EQ(on.search.accepted_worse, off.search.accepted_worse);
    // The best candidate's stats come from the search's own (replayed)
    // assessment, not from the winner's fresh re-assessment.
    expect_identical(on.search.best_evaluation.stats,
                     off.search.best_evaluation.stats);
    EXPECT_EQ(on.search.best_evaluation.score,
              off.search.best_evaluation.score);
    EXPECT_EQ(on.fulfilled, off.fulfilled);
}

TEST(IncrementalTrajectory, PinnedSearchAcrossBackends) {
    // The flagship facade property: a full annealing search — CRN resets,
    // rejected candidates, winner re-assessment — lands on the identical
    // plan, stats and counters with the verdict cache (cross-plan retention
    // plus journal replay) on or off, for every backend. Two
    // probability regimes: the paper's default (about 1% per component,
    // near-unique failure signatures) and a realistic one (5e-4 per
    // component), where signatures repeat, most rounds are clean and the
    // journal replay re-judges only the groups a swap can change. The
    // realistic regime runs more rounds, so that swaps meet failed rounds,
    // and a 3-of-3 app, so that one failed host changes a verdict.
    infrastructure_options realistic;
    realistic.probabilities.switch_mean = 5e-4;
    realistic.probabilities.switch_stddev = 5e-4 / 8.0;
    realistic.probabilities.other_mean = 5e-4;
    realistic.probabilities.other_stddev = 5e-4 / 8.0;
    struct regime_spec {
        const char* name;
        infrastructure_options infra;
        std::size_t rounds;
        application app;
    };
    for (const regime_spec& regime :
         {regime_spec{"paper", {}, 1000, application::k_of_n(2, 3)},
          regime_spec{"realistic", realistic, 20'000,
                      application::k_of_n(3, 3)}}) {
        auto infra = fat_tree_infrastructure::build(data_center_scale::tiny,
                                                    regime.infra);
        for (const assessment_backend_kind kind :
             {assessment_backend_kind::serial,
              assessment_backend_kind::parallel,
              assessment_backend_kind::engine}) {
            const auto run = [&](bool cached) {
                recloud_options options;
                options.assessment_rounds = regime.rounds;
                options.max_iterations = 25;
                options.seed = 9;
                options.backend = kind;
                options.assessment_threads = 2;
                options.verdict_cache = cached;
                re_cloud system{infra, options};
                deployment_request request{regime.app, 1.0,
                                           std::chrono::seconds{20}};
                deployment_response response =
                    system.find_deployment(request);
                const verdict_cache_stats* cache = system.cache_stats();
                if (cached) {
                    EXPECT_NE(cache, nullptr);
                    if (cache != nullptr) {
                        EXPECT_GT(cache->warm_rebinds, 0u);
                    }
                } else {
                    EXPECT_EQ(cache, nullptr);
                }
                return response;
            };
            SCOPED_TRACE(std::string{regime.name} + " backend " +
                         std::to_string(static_cast<int>(kind)));
            const deployment_response off = run(false);
            const deployment_response on = run(true);
            expect_same_search(on, off);
        }
    }
}

/// One registry counter, or 0 while the registry is off.
std::uint64_t registry_counter(const char* name) {
    return obs::metrics_registry::global().snapshot().value(name);
}

/// The journal_replays registry counter, or 0 while the registry is off.
std::uint64_t journal_replays() {
    return registry_counter("assess.journal_replays");
}

TEST(IncrementalEquivalence, ParallelBatchJournalsReplayOnlyTheirOwnStream) {
    // Every batch keeps one CRN journal, keyed by (reset seed, epoch, the
    // batch's rounds, app shape) and replayed by whichever worker claims the
    // batch. The sequence below makes each key component differ from the
    // held journals once; exactly the batches whose key still matches
    // replay, and every step must equal the uncached judge bit for bit.
    incr_fixture f;
    const application app = application::k_of_n(2, 3);
    const application other_app = application::k_of_n(1, 3);
    const deployment_plan plan_a = f.plan_for(app, 0);
    const deployment_plan plan_b = f.plan_for(app, 1);
    const deployment_plan other_plan = f.plan_for(other_app, 2);
    const verdict_support support = f.support();
    // 1100 rounds in 250-round batches: the fifth batch is 100 rounds short;
    // at 1200 rounds it is 200 rounds long, so only its key changes.
    constexpr std::size_t rounds = 1100;
    constexpr std::size_t longer = 1200;
    constexpr std::size_t batch_rounds = 250;
    static_assert(rounds % batch_rounds != 0);
    static_assert(rounds / batch_rounds == longer / batch_rounds);

    struct step {
        const char* name;
        std::uint64_t replays;  ///< batches replayed when cached
    };
    const std::vector<step> steps = {
        {"reset 5, plan A: records epoch 1", 0},
        {"plan A again: epoch 2 is another stream", 0},
        {"reset 7, plan A: another seed", 0},
        {"reset 5, plan B: the journals hold seed 7", 0},
        {"reset 5, plan A: replays plan B's recording", 5},
        {"reset 5, plan B, 1200 rounds: batches 0-3 replay, the last records",
         4},
        {"reset 5, plan A, 1200 rounds: every batch replays", 5},
        {"reset 5, other app shape", 0},
    };
    const auto run = [&](parallel_backend& backend) {
        std::vector<assessment_stats> out;
        std::vector<std::uint64_t> replays;
        const auto assess = [&](const application& a,
                                const deployment_plan& plan, std::size_t n) {
            const std::uint64_t before = journal_replays();
            out.push_back(backend.assess(a, plan, n));
            replays.push_back(journal_replays() - before);
        };
        backend.reset_stream(5);
        assess(app, plan_a, rounds);
        assess(app, plan_a, rounds);
        backend.reset_stream(7);
        assess(app, plan_a, rounds);
        backend.reset_stream(5);
        assess(app, plan_b, rounds);
        backend.reset_stream(5);
        assess(app, plan_a, rounds);
        backend.reset_stream(5);
        assess(app, plan_b, longer);
        backend.reset_stream(5);
        assess(app, plan_a, longer);
        backend.reset_stream(5);
        assess(other_app, other_plan, rounds);
        return std::pair{out, replays};
    };

    obs::metrics_registry::global().set_enabled(true);
    std::optional<std::vector<assessment_stats>> reference;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        for (const bool cached : {false, true}) {
            extended_dagger_sampler sampler{f.registry.probabilities(), 41};
            parallel_backend_options options{.threads = workers,
                                             .batch_rounds = batch_rounds};
            options.verdict_cache.enabled = cached;
            options.verdict_cache.support = &support;
            parallel_backend backend{f.registry.size(), &f.forest, f.factory(),
                                     sampler, options};
            const auto [stats, replays] = run(backend);
            ASSERT_EQ(stats.size(), steps.size());
            if (!reference) {
                reference = stats;
            }
            for (std::size_t i = 0; i < steps.size(); ++i) {
                SCOPED_TRACE("workers " + std::to_string(workers) +
                             " cached " + std::to_string(cached) +
                             " step " + steps[i].name);
                expect_identical(stats[i], (*reference)[i]);
                EXPECT_EQ(replays[i], cached ? steps[i].replays : 0u);
            }
        }
    }
    obs::metrics_registry::global().set_enabled(false);
}

/// Delegating oracle that cancels a run_budget from inside a round judgment
/// once a shared countdown of judged rounds runs out: a deterministic way
/// to preempt a search in the middle of an assessment.
class tripwire_oracle final : public reachability_oracle {
public:
    struct wire {
        std::atomic<std::int64_t> rounds_left{
            std::numeric_limits<std::int64_t>::max()};
        std::atomic<std::uint64_t> judged{0};
        std::atomic<run_budget*> budget{nullptr};
    };

    tripwire_oracle(std::unique_ptr<reachability_oracle> inner,
                    std::shared_ptr<wire> w)
        : inner_(std::move(inner)), wire_(std::move(w)) {}

    void begin_round(round_state& rs) override {
        tick();
        inner_->begin_round(rs);
    }
    void begin_round(round_state& rs,
                     std::span<const node_id> query_hosts) override {
        tick();
        inner_->begin_round(rs, query_hosts);
    }
    bool border_reachable(node_id host) override {
        return inner_->border_reachable(host);
    }
    bool host_to_host(node_id a, node_id b) override {
        return inner_->host_to_host(a, b);
    }
    round_class classify_round(
        std::span<const component_id> raw_failed) override {
        return inner_->classify_round(raw_failed);
    }
    void append_attachment(node_id host,
                           std::vector<component_id>& out) const override {
        inner_->append_attachment(host, out);
    }
    std::unique_ptr<reachability_oracle> clone() const override {
        return std::make_unique<tripwire_oracle>(inner_->clone(), wire_);
    }
    const link_attachment* consulted_links() const noexcept override {
        return inner_->consulted_links();
    }

private:
    void tick() {
        wire_->judged.fetch_add(1);
        if (wire_->rounds_left.fetch_sub(1) == 1) {
            if (run_budget* budget = wire_->budget.load()) {
                budget->cancel();
            }
        }
    }

    std::unique_ptr<reachability_oracle> inner_;
    std::shared_ptr<wire> wire_;
};

TEST(RunBudget, PreemptedParallelAssessmentKeepsOnlyFinishedJournals) {
    // Backend-level twin of the search case below, where nothing overwrites
    // the interrupted assessment's journals. Each batch has its own
    // journal, so a budget firing while the workers record leaves the
    // journals of the batches that finished before the trip complete, also
    // with one worker: those replay and the rest re-sample. Each worker
    // leaves at most the batch it was judging unfinished. A budget firing
    // while the workers replay only reads the journals: they stay valid and
    // the next assessment replays every batch. Every answer equals a
    // backend that was never interrupted.
    incr_fixture f;
    const application app = application::k_of_n(2, 3);
    const deployment_plan plan_a = f.plan_for(app, 0);
    const deployment_plan plan_b = f.plan_for(app, 1);
    const verdict_support support = f.support();
    constexpr std::size_t rounds = 2000;
    constexpr std::size_t batches = 8;  // of 250 rounds
    for (const std::size_t workers : {1u, 2u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        const auto wire = std::make_shared<tripwire_oracle::wire>();
        const auto make_backend = [&](extended_dagger_sampler& sampler) {
            parallel_backend_options options{.threads = workers,
                                             .batch_rounds = rounds / batches};
            options.verdict_cache.enabled = true;
            options.verdict_cache.support = &support;
            return std::make_unique<parallel_backend>(
                f.registry.size(), &f.forest,
                [&f, wire] {
                    return std::make_unique<tripwire_oracle>(
                        std::make_unique<bfs_reachability>(f.topo), wire);
                },
                sampler, options);
        };

        // Never interrupted: plan A's rounds judged cold, then plan B.
        extended_dagger_sampler cold_sampler{f.registry.probabilities(), 23};
        const auto cold = make_backend(cold_sampler);
        cold->reset_stream(5);
        const std::uint64_t judged_before_a = wire->judged.load();
        const assessment_stats expected_a = cold->assess(app, plan_a, rounds);
        const std::uint64_t judged_in_a = wire->judged.load() - judged_before_a;
        ASSERT_GE(judged_in_a, 2u);
        cold->reset_stream(5);
        const assessment_stats expected_b = cold->assess(app, plan_b, rounds);

        extended_dagger_sampler sampler{f.registry.probabilities(), 23};
        const auto backend = make_backend(sampler);
        obs::metrics_registry::global().set_enabled(true);

        // Preempted while recording plan A.
        run_budget recording;
        backend->set_budget(&recording);
        wire->budget.store(&recording);
        wire->rounds_left.store(static_cast<std::int64_t>(judged_in_a / 2));
        const std::uint64_t started_before = registry_counter("assess.batches");
        backend->reset_stream(5);
        EXPECT_THROW((void)backend->assess(app, plan_a, rounds),
                     search_preempted);
        const std::uint64_t started =
            registry_counter("assess.batches") - started_before;
        ASSERT_GE(started, 1u);
        ASSERT_LT(started, batches);  // the trip stopped the assessment
        wire->budget.store(nullptr);
        wire->rounds_left.store(std::numeric_limits<std::int64_t>::max());
        backend->set_budget(nullptr);

        std::uint64_t replays_before = journal_replays();
        backend->reset_stream(5);
        expect_identical(backend->assess(app, plan_b, rounds), expected_b);
        const std::uint64_t replays = journal_replays() - replays_before;
        EXPECT_GE(replays + workers, started);  // one unfinished per worker
        EXPECT_LT(replays, started);
        if (workers == 1) {
            EXPECT_GT(replays, 0u);  // the trip came after the first batch
        }

        // Preempted while replaying plan B's journals for plan A.
        run_budget replaying;
        replaying.cancel();
        backend->set_budget(&replaying);
        replays_before = journal_replays();
        backend->reset_stream(5);
        EXPECT_THROW((void)backend->assess(app, plan_a, rounds),
                     search_preempted);
        backend->set_budget(nullptr);

        backend->reset_stream(5);
        expect_identical(backend->assess(app, plan_a, rounds), expected_a);
        EXPECT_EQ(journal_replays() - replays_before, batches);
        obs::metrics_registry::global().set_enabled(false);
    }
}

TEST(RunBudget, PreemptedParallelSearchLeavesNoStaleJournal) {
    // A budget that fires mid-assessment stops the parallel workers, each
    // with its journal recorded, replayed or left unfinished. A later search
    // on the same re_cloud must answer exactly like a cold re_cloud. (The
    // interrupted search's winner re-assessment re-records every journal on
    // its own stream, so the backend-level case above is the one that pins
    // which journals an interruption leaves valid.)
    const scenario_ptr base = make_fat_tree_scenario(4);
    const auto wire = std::make_shared<tripwire_oracle::wire>();
    const tripwire_oracle prototype{base->make_oracle(), wire};
    scenario_builder builder;
    builder.topology(base->topology())
        .registry(base->registry())
        .workloads(*base->workloads())
        .oracle(prototype)
        .keep_alive(base);
    if (base->forest() != nullptr) {
        builder.forest(*base->forest());
    }
    if (base->links() != nullptr) {
        builder.links(*base->links());
    }
    const scenario_ptr snapshot = builder.freeze();

    std::vector<std::uint64_t> judged_after_iteration;
    recloud_options options;
    options.backend = assessment_backend_kind::parallel;
    options.assessment_threads = 2;
    options.assessment_batch_rounds = 64;
    options.assessment_rounds = 2048;  // 32 batches per assessment
    options.max_iterations = 20;
    options.deterministic_schedule = true;
    options.seed = 13;
    options.record_trace = true;
    options.observer = [&](const obs::search_iteration_event&) {
        judged_after_iteration.push_back(wire->judged.load());
    };
    const auto request = [] {
        deployment_request r;
        r.app = application::k_of_n(2, 3);
        r.desired_reliability = 2.0;  // unreachable: the full budget runs
        r.max_search_time = std::chrono::seconds{60};
        return r;
    };

    // A cold run. Its per-iteration judged-round counts locate a late
    // assessment that judges at least two rounds; the trip fires between
    // them. (Round judgments are a deterministic function of the seed and
    // the worker count, so the interrupted run below retraces them.)
    re_cloud cold_system{snapshot, options};
    const deployment_response cold = cold_system.find_deployment(request());
    std::optional<std::uint64_t> trip;
    for (std::size_t i = judged_after_iteration.size() / 2;
         i + 1 < judged_after_iteration.size(); ++i) {
        if (judged_after_iteration[i + 1] - judged_after_iteration[i] >= 2) {
            trip = (judged_after_iteration[i] + judged_after_iteration[i + 1]) /
                   2;
            break;
        }
    }
    ASSERT_TRUE(trip.has_value()) << "no late assessment judged two rounds";

    re_cloud system{snapshot, options};
    deployment_request preempted = request();
    preempted.budget = std::make_shared<run_budget>();
    wire->budget.store(preempted.budget.get());
    wire->rounds_left.store(static_cast<std::int64_t>(*trip));
    const deployment_response aborted = system.find_deployment(preempted);
    wire->budget.store(nullptr);
    EXPECT_EQ(aborted.outcome, search_outcome::deadline_exceeded);
    EXPECT_LT(aborted.search.plans_generated, cold.search.plans_generated);

    obs::metrics_registry::global().set_enabled(true);
    const std::uint64_t replays_before = journal_replays();
    const deployment_response reused = system.find_deployment(request());
    EXPECT_GT(journal_replays(), replays_before);
    obs::metrics_registry::global().set_enabled(false);
    expect_same_search(reused, cold);
    ASSERT_EQ(reused.search.trace.size(), cold.search.trace.size());
    for (std::size_t i = 0; i < cold.search.trace.size(); ++i) {
        EXPECT_EQ(reused.search.trace[i].plans_evaluated,
                  cold.search.trace[i].plans_evaluated);
        EXPECT_EQ(reused.search.trace[i].best_score,
                  cold.search.trace[i].best_score);
    }
}

// ---- journal replay: re-judging by swap delta ----------------------------

/// A scenario with fallible links and a power forest, judged through its
/// closed-form oracle or the flood.
struct replay_family {
    std::string name;
    scenario_ptr scenario;
    bool flood = false;

    [[nodiscard]] oracle_factory factory() const {
        if (!flood) {
            return [s = scenario] { return s->make_oracle(); };
        }
        return [s = scenario] {
            return std::make_unique<bfs_reachability>(s->topology(),
                                                      s->links());
        };
    }
    [[nodiscard]] verdict_support support() const {
        return verdict_support{scenario->topology(), scenario->registry().size(),
                               scenario->forest(), scenario->links()};
    }
};

/// `topo` with fallible links and power supplies, on the flood.
scenario_ptr make_flood_scenario(built_topology topo) {
    struct parts {
        explicit parts(built_topology built) : topo(std::move(built)) {}
        built_topology topo;
        component_registry registry{topo.graph};
        fault_tree_forest forest{topo.graph.node_count()};
        link_attachment links;
        std::optional<bfs_reachability> oracle;
    };
    auto p = std::make_shared<parts>(std::move(topo));
    (void)attach_power_supplies(p->topo, p->registry, p->forest);
    p->links = attach_link_components(p->topo, p->registry);
    rng random{42};
    assign_paper_probabilities(p->registry, random);
    p->oracle.emplace(p->topo, &p->links);
    scenario_builder builder;
    builder.topology(p->topo)
        .registry(p->registry)
        .forest(p->forest)
        .links(p->links)
        .oracle(*p->oracle)
        .keep_alive(p);
    return builder.freeze();
}

/// The fat-tree on its closed-form oracle and on the flood, then one small
/// instance of every other family on the flood. BCube's and DCell's hosts
/// are multi-homed: they relay traffic, so they sit in the static support,
/// and each depends on the supplies of all its switches.
std::vector<replay_family> replay_families() {
    infrastructure_options options;
    options.model_link_failures = true;
    const scenario_ptr fat_tree = make_fat_tree_scenario(4, options);
    return {
        {"fat_tree_routing", fat_tree, false},
        {"bfs_reachability", fat_tree, true},
        {"bcube bfs_reachability",
         make_flood_scenario(build_bcube({.ports = 4, .levels = 1})), true},
        {"leaf_spine bfs_reachability",
         make_flood_scenario(build_leaf_spine({.spines = 2,
                                               .leaves = 4,
                                               .hosts_per_leaf = 4,
                                               .border_leaves = 1})),
         true},
        {"vl2 bfs_reachability",
         make_flood_scenario(build_vl2({.intermediates = 2,
                                        .aggregations = 4,
                                        .tors = 4,
                                        .hosts_per_tor = 4,
                                        .border_intermediates = 1})),
         true},
        {"jellyfish bfs_reachability",
         make_flood_scenario(build_jellyfish({.switches = 8,
                                              .degree = 3,
                                              .hosts_per_switch = 2,
                                              .border_switches = 1})),
         true},
        {"dcell bfs_reachability",
         make_flood_scenario(build_dcell({.servers_per_cell = 3})), true}};
}

bool shares_dependency(const fault_tree_forest& forest, node_id a, node_id b) {
    const std::vector<component_id> deps_a = forest.dependencies_of(a);
    const std::vector<component_id> deps_b = forest.dependencies_of(b);
    return std::any_of(deps_a.begin(), deps_a.end(), [&](component_id dep) {
        return std::find(deps_b.begin(), deps_b.end(), dep) != deps_b.end();
    });
}

/// The candidates of an annealing-like walk over plans with distinct hosts:
/// each is the current plan with one slot moved — to a random free host, to
/// a free host sharing the old host's fault-tree dependency, back to the
/// slot's previous host — or with two slots permuted; about half are
/// accepted as the next current plan. The first candidate is a plain
/// single-slot swap of the initial plan, which is candidate 0.
std::vector<deployment_plan> swap_walk(const scenario& s, std::size_t instances,
                                       std::size_t steps, std::uint64_t seed) {
    const std::vector<node_id>& hosts = s.topology().hosts;
    rng random{seed};
    const auto is_free = [](const deployment_plan& plan, node_id host) {
        return std::find(plan.hosts.begin(), plan.hosts.end(), host) ==
               plan.hosts.end();
    };
    const auto random_free = [&](const deployment_plan& plan) {
        for (;;) {
            const node_id host = hosts[random.uniform_below(hosts.size())];
            if (is_free(plan, host)) {
                return host;
            }
        }
    };
    deployment_plan current;
    while (current.hosts.size() < instances) {
        current.hosts.push_back(random_free(current));
    }
    std::vector<node_id> previous(instances, invalid_node);
    std::vector<deployment_plan> out{current};
    for (std::size_t step = 0; step < steps; ++step) {
        deployment_plan next = current;
        const std::size_t slot = random.uniform_below(instances);
        const node_id old = current.hosts[slot];
        const std::uint64_t kind = step == 0 ? 3 : random.uniform_below(4);
        std::vector<node_id> sharing;
        if (kind == 2 && s.forest() != nullptr) {
            for (const node_id host : hosts) {
                if (host != old && is_free(current, host) &&
                    shares_dependency(*s.forest(), old, host)) {
                    sharing.push_back(host);
                }
            }
        }
        if (kind == 0) {
            const std::size_t other =
                (slot + 1 + random.uniform_below(instances - 1)) % instances;
            std::swap(next.hosts[slot], next.hosts[other]);
        } else if (kind == 1 && previous[slot] != invalid_node &&
                   is_free(current, previous[slot])) {
            next.hosts[slot] = previous[slot];
        } else if (!sharing.empty()) {
            next.hosts[slot] = sharing[random.uniform_below(sharing.size())];
        } else {
            next.hosts[slot] = random_free(current);
        }
        out.push_back(next);
        if (random.uniform_below(2) == 0) {
            for (std::size_t i = 0; i < instances; ++i) {
                if (next.hosts[i] != current.hosts[i]) {
                    previous[i] = current.hosts[i];
                }
            }
            current = next;
        }
    }
    return out;
}

TEST(IncrementalReplay, RandomizedSwapWalksMatchFullPasses) {
    // Every candidate of a walk is assessed on the same reset stream, as
    // under CRN search: the journals record the first and replay the rest,
    // keeping the group verdicts a swap cannot change. Each step must equal
    // the uncached judge bit for bit, for every family, two application
    // shapes, 1 or 4 workers and 6 or 24 batches (the second puts V on the
    // batch replicates, so each replay must rebuild the full pass's
    // per-batch tallies); after the first single swap only part of the
    // groups is judged again. The walks and the failure stream draw from
    // property_seed(), so a rotating RECLOUD_PROPERTY_SEED varies them.
    obs::metrics_registry::global().set_enabled(true);
    for (const replay_family& family : replay_families()) {
        const verdict_support support = family.support();
        const std::vector<application> apps = {application::k_of_n(3, 4),
                                               application::microservice(1, 1, 2, 3)};
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const application& app = apps[a];
            const std::vector<deployment_plan> walk =
                swap_walk(*family.scenario, app.total_instances(), 24,
                          property_seed(71 + a));
            for (const std::size_t batch_rounds : {500u, 125u}) {
                std::optional<std::vector<assessment_stats>> reference;
                for (const std::size_t workers : {1u, 4u}) {
                    for (const bool cached : {false, true}) {
                        SCOPED_TRACE(family.name + " app " + std::to_string(a) +
                                     " workers " + std::to_string(workers) +
                                     " batch " + std::to_string(batch_rounds) +
                                     " cached " + std::to_string(cached));
                        extended_dagger_sampler sampler{
                            family.scenario->registry().probabilities(),
                            property_seed(29)};
                        parallel_backend_options options{
                            .threads = workers, .batch_rounds = batch_rounds};
                        options.verdict_cache.enabled = cached;
                        options.verdict_cache.support = &support;
                        parallel_backend backend{
                            family.scenario->registry().size(),
                            family.scenario->forest(), family.factory(), sampler,
                            options};
                        std::vector<assessment_stats> stats;
                        std::uint64_t groups = 0;
                        std::uint64_t rejudged = 0;
                        for (std::size_t i = 0; i < walk.size(); ++i) {
                            const std::uint64_t groups_before =
                                registry_counter("assess.replay_groups");
                            const std::uint64_t rejudged_before =
                                registry_counter("assess.replay_rejudged");
                            backend.reset_stream(3);
                            stats.push_back(backend.assess(app, walk[i], 3000));
                            if (i == 1) {
                                groups = registry_counter("assess.replay_groups") -
                                         groups_before;
                                rejudged =
                                    registry_counter("assess.replay_rejudged") -
                                    rejudged_before;
                            }
                        }
                        if (!reference) {
                            reference = stats;
                        }
                        for (std::size_t i = 0; i < walk.size(); ++i) {
                            SCOPED_TRACE("step " + std::to_string(i));
                            expect_identical(stats[i], (*reference)[i]);
                            EXPECT_EQ(stats[i].replicates,
                                      batch_rounds == 125 ? 24u : 0u);
                        }
                        const verdict_cache_stats* cache = backend.cache_stats();
                        if (cached) {
                            ASSERT_NE(cache, nullptr);
                            EXPECT_GT(groups, 0u);
                            EXPECT_LT(rejudged, groups);
                            EXPECT_GT(cache->replay_groups, cache->replay_rejudged);
                        } else {
                            EXPECT_EQ(groups, 0u);
                            EXPECT_EQ(cache, nullptr);
                        }
                    }
                }
            }
        }
    }
    obs::metrics_registry::global().set_enabled(false);
}

TEST(IncrementalReplay, PreemptMidRejudgeLeavesVerdictsToRejudge) {
    // A budget firing after a replay judged some groups again leaves the
    // kept verdicts half moved to the interrupted plan. The next replay —
    // for a plan whose swap delta from the last complete one misses the
    // groups already moved — must judge every group and equal a full pass.
    // The pass is one batch, so one journal holds every group.
    const replay_family family = replay_families()[1];
    const verdict_support support = family.support();
    const application app = application::k_of_n(4, 4);
    const std::vector<node_id>& hosts = family.scenario->topology().hosts;
    ASSERT_GE(hosts.size(), 12u);
    const deployment_plan plan_a{.hosts = {hosts[0], hosts[4], hosts[8],
                                           hosts[11]}};
    deployment_plan plan_b = plan_a;  // slot 0 moved
    plan_b.hosts[0] = hosts[2];
    deployment_plan plan_c = plan_a;  // slot 1 moved
    plan_c.hosts[1] = hosts[6];
    constexpr std::size_t rounds = 20000;

    const auto wire = std::make_shared<tripwire_oracle::wire>();
    const auto make_backend = [&](extended_dagger_sampler& sampler,
                                  bool cached) {
        parallel_backend_options options{.threads = 1, .batch_rounds = rounds};
        options.verdict_cache.enabled = cached;
        options.verdict_cache.support = &support;
        return std::make_unique<parallel_backend>(
            family.scenario->registry().size(), family.scenario->forest(),
            [factory = family.factory(), wire] {
                return std::make_unique<tripwire_oracle>(factory(), wire);
            },
            sampler, options);
    };
    const auto probabilities = family.scenario->registry().probabilities();

    // Full passes (the uncached judge) for the answers.
    extended_dagger_sampler full_sampler{probabilities, 61};
    const auto full = make_backend(full_sampler, false);
    const auto full_pass = [&](const deployment_plan& plan) {
        full->reset_stream(5);
        return full->assess(app, plan, rounds);
    };
    const assessment_stats expected_b = full_pass(plan_b);
    const assessment_stats expected_c = full_pass(plan_c);

    // How many groups plan B's replay judges again, uninterrupted.
    extended_dagger_sampler twin_sampler{probabilities, 61};
    const auto twin = make_backend(twin_sampler, true);
    twin->reset_stream(5);
    (void)twin->assess(app, plan_a, rounds);
    twin->reset_stream(5);
    expect_identical(twin->assess(app, plan_b, rounds), expected_b);
    const std::uint64_t rejudged = twin->cache_stats()->replay_rejudged;
    // The budget must fire before a poll that some re-judged group is still
    // ahead of.
    ASSERT_GT(rejudged, 2 * budget_poll_stride);

    extended_dagger_sampler sampler{probabilities, 61};
    const auto backend = make_backend(sampler, true);
    backend->reset_stream(5);
    (void)backend->assess(app, plan_a, rounds);

    run_budget budget;
    backend->set_budget(&budget);
    wire->budget.store(&budget);
    wire->rounds_left.store(budget_poll_stride / 2);
    const std::uint64_t judged_before = wire->judged.load();
    backend->reset_stream(5);
    EXPECT_THROW((void)backend->assess(app, plan_b, rounds), search_preempted);
    const std::uint64_t judged = wire->judged.load() - judged_before;
    EXPECT_GE(judged, budget_poll_stride / 2);  // some groups judged again
    EXPECT_LT(judged, rejudged);                // ... but not all of them
    wire->budget.store(nullptr);
    wire->rounds_left.store(std::numeric_limits<std::int64_t>::max());
    backend->set_budget(nullptr);

    const verdict_cache_stats before = *backend->cache_stats();
    backend->reset_stream(5);
    expect_identical(backend->assess(app, plan_c, rounds), expected_c);
    const verdict_cache_stats* after = backend->cache_stats();
    const std::uint64_t groups = after->replay_groups - before.replay_groups;
    EXPECT_GT(groups, 0u);  // replayed, judging every group again
    EXPECT_EQ(after->replay_rejudged - before.replay_rejudged, groups);
    backend->reset_stream(5);
    expect_identical(backend->assess(app, plan_b, rounds), expected_b);
}

}  // namespace
}  // namespace recloud
