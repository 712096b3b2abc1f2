// Round-verdict memoization for the route-and-check hot loop.
//
// A round's verdict ("is the plan reliable under this failed set?") is a
// pure function of the RAW sampled failed set restricted to the plan's
// *support*: the components whose failure can possibly influence routing,
// fault-tree reasoning, or the requirement check. Everything else — hosts
// no instance is placed on and that no packet can transit — is noise the
// sampler happens to produce. With realistic failure probabilities
// (10^-3..10^-5) the overwhelming majority of rounds therefore carry an
// empty or previously-seen support-filtered failed set, and the full BFS
// flood + requirement fixpoint can be replaced by a hash probe.
//
// Three layers:
//   1. empty-round fast path — the all-alive verdict is computed once per
//      (application, plan) binding and returned without touching the
//      oracle;
//   2. support filtering — sampled failures outside the support are
//      dropped from the cache key, collapsing many distinct raw rounds
//      into one signature;
//   3. signature -> verdict table — open addressing over an FNV-1a hash of
//      the sorted filtered set, with the EXACT key stored alongside (hash
//      collisions are compared away, so cache-on is provably
//      verdict-identical to cache-off), bounded size with an epoch-based
//      wholesale reset, and hit/miss/evict counters.
//
// Thread-safety: none. Each assessment worker owns its own verdict_cache
// (the immutable verdict_support may be shared); verdicts are pure, so
// per-worker caches cannot perturb assessment_stats for any worker count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "app/requirement_eval.hpp"
#include "faults/fault_tree.hpp"
#include "routing/oracle.hpp"
#include "topology/graph.hpp"
#include "topology/links.hpp"

namespace recloud {

/// The plan-independent part of the support set, computed once per
/// infrastructure and shared (immutably) by every worker's cache:
///   * every non-host routing node (switches and the external node — any
///     of them can sit on a path between plan hosts);
///   * multi-homed hosts (degree > 1: BCube/DCell servers relay traffic;
///     a degree-1 host is a leaf no path can transit);
///   * every registered link component;
///   * the fault-tree dependencies (leaves) of all of the above.
/// Plan hosts and THEIR fault-tree dependencies are added per binding by
/// verdict_cache::bind.
///
/// Soundness requires `links` to name every link attachment the routing
/// oracle consults (recloud_context::links); a link the oracle checks but
/// the support omits would let a link failure be filtered out of the key.
class verdict_support {
public:
    verdict_support(const built_topology& topo, std::size_t component_count,
                    const fault_tree_forest* forest,
                    const link_attachment* links);

    [[nodiscard]] std::size_t component_count() const noexcept {
        return member_.size();
    }
    [[nodiscard]] bool contains_static(component_id id) const noexcept {
        return member_[id] != 0;
    }
    [[nodiscard]] std::size_t static_size() const noexcept { return size_; }
    [[nodiscard]] const fault_tree_forest* forest() const noexcept {
        return forest_;
    }
    [[nodiscard]] std::span<const std::uint8_t> membership() const noexcept {
        return member_;
    }

    /// Attachment components of a host: its adjacent routing nodes, the
    /// link components of its incident edges, and the fault-tree
    /// dependencies of all of those — everything besides the host itself
    /// whose failure can detach the host's instances from the network. The
    /// cross-plan delta for SEMI verdict retention is exactly this set for
    /// every changed host (see round_class). Empty for non-host nodes.
    [[nodiscard]] std::span<const component_id> host_attachment(
        node_id host) const noexcept {
        if (host + 1 >= attach_begin_.size()) {
            return {};
        }
        return {attach_pool_.data() + attach_begin_[host],
                attach_begin_[host + 1] - attach_begin_[host]};
    }

private:
    const fault_tree_forest* forest_;
    std::vector<std::uint8_t> member_;  ///< 1 iff statically in the support
    std::size_t size_ = 0;
    std::vector<std::uint32_t> attach_begin_;  ///< by node id, CSR offsets
    std::vector<component_id> attach_pool_;
};

/// The swap delta between two bindings of one application shape (DESIGN.md
/// §11): every host that moved in or out of a slot (exact slot-wise diff —
/// multiplicity and permutation changes count, so duplicate-host plans stay
/// sound) plus its fault-tree dependencies at the core kill level, plus its
/// attachment components (verdict_support::host_attachment) at the semi kill
/// level. A core component invalidates clean AND semi verdicts; an
/// attachment component invalidates semi verdicts only — clean rounds have
/// no attachment failures at all, so their verdicts cannot depend on those.
/// The verdict cache retains entries by it and the CRN round journal keeps
/// group verdicts by it, so both apply one rule.
class swap_delta {
public:
    /// Replaces the delta with the one between two host lists of equal
    /// length over `support`.
    void compute(const verdict_support& support, std::span<const node_id> from,
                 std::span<const node_id> to);

    /// The delta's components, each once.
    [[nodiscard]] std::span<const component_id> components() const noexcept {
        return list_;
    }

    /// Whether `id` is a delta component that can change a verdict of class
    /// `cls` (any delta component, for unclean).
    [[nodiscard]] bool kills(component_id id, round_class cls) const noexcept {
        return (level_[id] & kill_mask(cls)) != 0;
    }

    /// Whether a verdict of class `cls` judged from `key` may differ across
    /// the delta: always for unclean, else iff some key component kills it.
    [[nodiscard]] bool meets(std::span<const component_id> key,
                             round_class cls) const noexcept {
        const std::uint8_t mask = kill_mask(cls);
        if (mask == unclean_mask) {
            return true;
        }
        return std::any_of(key.begin(), key.end(), [&](component_id id) {
            return (level_[id] & mask) != 0;
        });
    }

private:
    static constexpr std::uint8_t kills_semi = 1;
    static constexpr std::uint8_t kills_clean = 2;
    static constexpr std::uint8_t unclean_mask = 0xff;

    [[nodiscard]] static constexpr std::uint8_t kill_mask(
        round_class cls) noexcept {
        return cls == round_class::clean  ? kills_clean
               : cls == round_class::semi ? kills_semi
                                          : unclean_mask;
    }
    void add(component_id id, std::uint8_t kills);

    /// Kill levels by component id (bitwise), sized on first use and
    /// cleared through list_.
    std::vector<std::uint8_t> level_;
    std::vector<component_id> list_;
};

/// Observability counters for one cache (or an aggregate over workers).
struct verdict_cache_stats {
    std::uint64_t rounds = 0;      ///< lookups (rounds routed through the cache)
    std::uint64_t empty_hits = 0;  ///< empty-filtered fast-path returns
    std::uint64_t hits = 0;        ///< signature-table hits
    std::uint64_t misses = 0;      ///< full route-and-check runs
    std::uint64_t insertions = 0;  ///< entries stored
    std::uint64_t evictions = 0;   ///< wholesale table resets (capacity)
    std::uint64_t rebinds = 0;     ///< plan/application changes (warm + cold)
    std::uint64_t warm_rebinds = 0;  ///< cross-plan rebinds that kept entries
    std::uint64_t cold_rebinds = 0;  ///< rebinds that epoch-wiped the table
    std::uint64_t cross_plan_hits = 0;  ///< hits served by retained entries
    std::uint64_t retained_entries = 0;  ///< entries kept across warm rebinds
    std::uint64_t support_size = 0;  ///< of the current binding (not summed)
    /// CRN journal groups replayed in front of this cache — by the batch
    /// journals (round_journal) of the batches its worker claimed — and how
    /// many of them were judged again. The engine does not journal, so its
    /// workers never report these.
    std::uint64_t replay_groups = 0;
    std::uint64_t replay_rejudged = 0;

    /// The field list: calls fn(name, member) for every counter above, in
    /// declaration order. Sums, growths, the cache.stats.* gauges, the
    /// worker.N.* entries and the worker wire all iterate it, so a field
    /// added here reaches every surface.
    template <typename Fn>
    static constexpr void for_each_counter(Fn&& fn) {
        fn("rounds", &verdict_cache_stats::rounds);
        fn("empty_hits", &verdict_cache_stats::empty_hits);
        fn("hits", &verdict_cache_stats::hits);
        fn("misses", &verdict_cache_stats::misses);
        fn("insertions", &verdict_cache_stats::insertions);
        fn("evictions", &verdict_cache_stats::evictions);
        fn("rebinds", &verdict_cache_stats::rebinds);
        fn("warm_rebinds", &verdict_cache_stats::warm_rebinds);
        fn("cold_rebinds", &verdict_cache_stats::cold_rebinds);
        fn("cross_plan_hits", &verdict_cache_stats::cross_plan_hits);
        fn("retained_entries", &verdict_cache_stats::retained_entries);
        fn("support_size", &verdict_cache_stats::support_size);
        fn("replay_groups", &verdict_cache_stats::replay_groups);
        fn("replay_rejudged", &verdict_cache_stats::replay_rejudged);
    }

    /// Rounds answered without route-and-check.
    [[nodiscard]] std::uint64_t saved_rounds() const noexcept {
        return empty_hits + hits;
    }
    [[nodiscard]] double hit_rate() const noexcept {
        return rounds == 0 ? 0.0
                           : static_cast<double>(saved_rounds()) /
                                 static_cast<double>(rounds);
    }

    /// Sums counters; support_size is carried over (workers share a plan).
    void accumulate(const verdict_cache_stats& other) noexcept {
        for_each_counter([&](const char*, auto field) {
            this->*field = field == &verdict_cache_stats::support_size
                               ? other.*field
                               : this->*field + other.*field;
        });
    }

    /// The inverse of accumulate: every counter's growth since `before`,
    /// and the current support_size.
    [[nodiscard]] verdict_cache_stats growth_since(
        const verdict_cache_stats& before) const noexcept {
        verdict_cache_stats growth = *this;
        for_each_counter([&](const char*, auto field) {
            if (field != &verdict_cache_stats::support_size) {
                growth.*field -= before.*field;
            }
        });
        return growth;
    }
};

/// How a backend should build its per-worker caches. `support` must be
/// non-null (and outlive the backend) when `enabled`.
struct verdict_cache_options {
    bool enabled = false;
    std::size_t max_entries = 1 << 16;  ///< per worker, before a reset
    const verdict_support* support = nullptr;
};

class verdict_cache {
public:
    explicit verdict_cache(const verdict_support& support,
                           std::size_t max_entries = 1 << 16,
                           bool cross_plan = false);

    /// Binds the cache to an (application, plan) pair. Rebinding the same
    /// pair keeps every entry warm; an application-shape change resets the
    /// table and the empty-round verdict and recomputes the plan part of
    /// the support.
    ///
    /// A PLAN change behaves two ways. Default: epoch-wipe (cold rebind).
    /// In cross-plan mode the cache self-diffs the old and new host lists
    /// slot by slot — candidate plans under simulated annealing differ in
    /// exactly one slot, but the diff is exact for any change, including
    /// rejected-candidate sequences and permutations — and computes the
    /// swap delta: every host that moved in or out of a slot plus its
    /// fault-tree dependencies. It then retains each entry that (a) was
    /// stored from a CLEAN round (oracle::classify_round — the verdict is a
    /// pure function of slot-host aliveness) and (b) has a key disjoint
    /// from the delta, so the aliveness vector the verdict encodes is
    /// unchanged. SEMI rounds (verdict a pure function of slot-wise
    /// attachment-effective aliveness — e.g. only edge switches failed) are
    /// retained under the stronger condition that the key also misses every
    /// attachment component of a changed host (verdict_support::
    /// host_attachment). Exact-key safety is preserved: retained entries only
    /// ever answer lookups whose support-filtered key matches verbatim, so
    /// a wrong verdict can never be served — at worst a retainable entry is
    /// dropped and re-judged (warm rebind falls back to the epoch-wipe when
    /// nothing survives or the key arena outgrows its soft limit).
    void bind(const application& app, const deployment_plan& plan);

    struct lookup_result {
        bool hit = false;
        bool verdict = false;
    };

    /// Filters `failed` against the support and probes the table. On a miss
    /// the caller must route-and-check and hand the verdict to store()
    /// before the next lookup. Requires bind().
    [[nodiscard]] lookup_result lookup(std::span<const component_id> failed);

    /// Completes the miss of the immediately preceding lookup(). `cls`
    /// marks how the oracle classified the round: `clean` entries survive
    /// plan swaps whose core delta misses their key, `semi` entries
    /// additionally require the changed hosts' attachment components to
    /// miss it (see round_class). Only consulted in cross-plan mode;
    /// `unclean` is always safe.
    void store(bool verdict, round_class cls = round_class::unclean);

    /// Whether cross-plan retention is on — the only reason a k-of-n app's
    /// rounds need the oracle's classification (cached_reliable_in_round).
    [[nodiscard]] bool cross_plan() const noexcept { return cross_plan_; }

    [[nodiscard]] const verdict_cache_stats& stats() const noexcept {
        return stats_;
    }
    [[nodiscard]] std::size_t support_size() const noexcept {
        return support_size_;
    }
    /// Membership of the current binding (static support + plan additions).
    [[nodiscard]] bool in_support(component_id id) const noexcept {
        return member_[id] != 0;
    }
    /// The components the current bind() added beyond the static support
    /// (plan hosts + their fault-tree dependencies), deduplicated. Exactly
    /// the ids for which in_support() can differ between two bindings of
    /// the same application shape — the journal replay probes only these.
    [[nodiscard]] std::span<const component_id> bound_support_additions()
        const noexcept {
        return bound_additions_;
    }
    [[nodiscard]] std::size_t entries() const noexcept { return size_; }
    /// The support-filtered sorted key of the last lookup — valid on hits,
    /// misses and the empty fast path. The CRN journal groups rounds by it.
    [[nodiscard]] std::span<const component_id> last_key() const noexcept {
        return filtered_;
    }
    /// The class of the last lookup's round: the stored entry's on a hit,
    /// the empty-round verdict's on the empty path, the one store() was
    /// given on a miss.
    [[nodiscard]] round_class last_class() const noexcept {
        return last_class_;
    }
    [[nodiscard]] const verdict_support& support() const noexcept {
        return *support_;
    }

    /// Drops every table entry (a generation bump); the binding and the
    /// empty-round verdict stay. For an owner that keeps the verdicts of the
    /// recorded keys itself and never looks them up again (round_journal).
    void drop_entries() noexcept { reset_table(); }

    /// Counts one CRN journal replay in front of this cache (see
    /// verdict_cache_stats::replay_groups).
    void count_replay(std::size_t groups, std::size_t rejudged) noexcept {
        stats_.replay_groups += groups;
        stats_.replay_rejudged += rejudged;
    }

private:
    struct slot {
        std::uint64_t hash = 0;
        std::uint32_t epoch = 0;  ///< generation that wrote the slot
        std::uint32_t key_begin = 0;
        std::uint32_t key_length = 0;
        std::uint8_t verdict = 0;
        std::uint8_t flags = 0;  ///< slot_dead | slot_clean | slot_semi | ...
    };
    static constexpr std::uint8_t slot_dead = 1;      ///< tombstone
    static constexpr std::uint8_t slot_clean = 2;     ///< clean round
    static constexpr std::uint8_t slot_retained = 4;  ///< survived a rebind
    static constexpr std::uint8_t slot_semi = 8;      ///< semi-clean round

    [[nodiscard]] static constexpr round_class class_of(
        std::uint8_t flags) noexcept {
        return (flags & slot_clean) != 0  ? round_class::clean
               : (flags & slot_semi) != 0 ? round_class::semi
                                          : round_class::unclean;
    }

    void reset_table() noexcept;
    /// Warm (cross-plan) rebind: tombstones every entry whose key meets the
    /// swap delta or whose round was not clean; survivors stay probeable.
    void warm_rebind(const deployment_plan& plan);
    [[nodiscard]] std::size_t probe(std::uint64_t hash,
                                    lookup_result* found) const;
    /// Key-arena growth bound across warm rebinds (retained keys pin arena
    /// prefixes, tombstoned ones leave garbage); crossing it downgrades the
    /// next rebind to a cold wipe, which clears the arena.
    [[nodiscard]] std::size_t key_pool_soft_limit() const noexcept {
        return std::max<std::size_t>(max_entries_ * 16, 1024);
    }

    const verdict_support* support_;
    std::size_t max_entries_;
    bool cross_plan_ = false;
    std::size_t mask_;  ///< capacity - 1 (power of two)
    std::vector<slot> slots_;
    std::vector<component_id> key_pool_;  ///< arena for stored keys
    /// Indices of the live slots, exactly one entry per live slot: store()
    /// is the only transition to live, warm_rebind() the only one to dead,
    /// reset_table() clears everything — so a rebind sweeps O(live) slots
    /// instead of the whole table.
    std::vector<std::uint32_t> live_slots_;

    std::vector<std::uint8_t> member_;  ///< static support + plan additions
    std::size_t support_size_ = 0;
    std::vector<component_id> bound_additions_;  ///< see accessor

    swap_delta delta_;  ///< scratch of warm rebinds

    // Binding identity.
    bool bound_ = false;
    std::vector<node_id> bound_hosts_;
    std::uint64_t bound_app_fingerprint_ = 0;

    std::uint32_t epoch_ = 1;  ///< current table generation
    std::size_t size_ = 0;     ///< live entries
    std::size_t dead_count_ = 0;  ///< tombstones (live + dead bounds probes)

    bool empty_valid_ = false;
    bool empty_verdict_ = false;
    round_class empty_class_ = round_class::unclean;
    round_class last_class_ = round_class::unclean;  ///< see last_class()

    // State carried from a missing lookup() to its store().
    std::vector<component_id> filtered_;
    std::uint64_t pending_hash_ = 0;
    std::size_t pending_slot_ = 0;
    bool pending_empty_ = false;
    bool pending_store_ = false;

    verdict_cache_stats stats_;
};

/// Structural fingerprint of an application (replica counts + requirement
/// shape). The cache keys binding identity on it; the CRN round journal
/// (assess/round_journal.hpp) reuses the same identity.
[[nodiscard]] std::uint64_t application_fingerprint(
    const application& app) noexcept;

/// Judges one round through an optional cache: on a hit the oracle is never
/// touched; on a miss (or without a cache) the usual round setup +
/// route-and-check runs, passing the plan hosts as the oracle's query-target
/// hint (bfs_reachability uses it to stop flooding early). The oracle
/// classifies a judged round once when the class can pay: for an app with
/// internal requirements (a connected round is then judged per component)
/// or in cross-plan mode (the stored verdict can survive plan swaps). The
/// same class goes to the evaluator and to the cache. The single seam every
/// backend's round loop goes through.
inline bool cached_reliable_in_round(verdict_cache* cache,
                                     std::span<const component_id> failed,
                                     round_state& rs,
                                     reachability_oracle& oracle,
                                     const deployment_plan& plan,
                                     requirement_evaluator& evaluator) {
    if (cache != nullptr) {
        const verdict_cache::lookup_result cached = cache->lookup(failed);
        if (cached.hit) {
            return cached.verdict;
        }
    }
    rs.begin_round(failed);
    oracle.begin_round(rs, std::span<const node_id>{plan.hosts});
    const bool classify = evaluator.wants_round_class() ||
                          (cache != nullptr && cache->cross_plan());
    const round_class cls =
        classify ? oracle.classify_round(failed) : round_class::unclean;
    const bool verdict = evaluator.reliable_in_round(oracle, rs, cls);
    if (cache != nullptr) {
        cache->store(verdict, cls);
    }
    return verdict;
}

}  // namespace recloud
