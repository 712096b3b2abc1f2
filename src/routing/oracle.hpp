// Routing / reachability oracle interface — the "route" part of the paper's
// route-and-check (§3.2.1, Figure 2). Working with another data-center
// architecture only requires swapping this oracle (§3.2.1: "we only need to
// change this step's routing protocol").
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "faults/round_state.hpp"
#include "topology/graph.hpp"

namespace recloud {

class link_attachment;  // topology/links.hpp

/// Connectivity class of one sampled round (see classify_round). It drives
/// both judging (requirement_evaluator's connected path) and cross-plan
/// verdict retention (verdict_cache).
enum class round_class : std::uint8_t {
    unclean = 0,  ///< verdict may depend on the plan beyond slot aliveness
    semi = 1,     ///< pure function of slot-wise ATTACHMENT-effective aliveness
    clean = 2,    ///< pure function of slot-wise host-effective aliveness
};

/// Whether a round is connected: clean or semi. See classify_round for the
/// contract such a round gives host_to_host and border_reachable.
[[nodiscard]] constexpr bool connected(round_class cls) noexcept {
    return cls != round_class::unclean;
}

class reachability_oracle {
public:
    virtual ~reachability_oracle() = default;

    /// Binds the oracle to the current round of `rs`. Must be called after
    /// rs.begin_round() and before any query of that round. The round_state
    /// must outlive the queries.
    virtual void begin_round(round_state& rs) = 0;

    /// Binds the oracle to the round AND promises that only the hosts in
    /// `query_hosts` will be queried (as border_reachable target or either
    /// host_to_host end) until the next begin_round. Flood-based oracles use
    /// the hint to stop early once every queryable host is settled; the
    /// default ignores it. Duplicates allowed (a deployment plan's host list
    /// qualifies as-is).
    virtual void begin_round(round_state& rs,
                             std::span<const node_id> query_hosts) {
        (void)query_hosts;
        begin_round(rs);
    }

    /// Whether `host` is reachable from any border switch — i.e. the
    /// instance on it is "alive" in the paper's sense (§2.2).
    [[nodiscard]] virtual bool border_reachable(node_id host) = 0;

    /// Whether hosts `a` and `b` can reach each other (complex application
    /// structures, §3.2.4). a == b reduces to "a is effectively alive".
    [[nodiscard]] virtual bool host_to_host(node_id a, node_id b) = 0;

    /// Round connectivity classifier: decides whether the requirement
    /// evaluator may judge the round component by component, and whether the
    /// verdict cache may keep the verdict across plan swaps.
    /// `raw_failed` is the round's raw failed-set (the same span
    /// begin_round's round_state was given); may only be called while the
    /// oracle is bound to that round.
    ///
    /// Contract of a connected (clean or semi) round, for distinct hosts:
    ///   host_to_host(a, b) == border_reachable(a) && border_reachable(b),
    /// where border_reachable(h) is the host's attachment-effective
    /// aliveness (below). Reachability then carries no pairwise information,
    /// which is what lets requirement_evaluator skip the pairwise fixpoint.
    ///
    /// `clean` ONLY when the round's surviving network is "fully connected
    /// for any plan": every host of the topology — assumed alive together
    /// with its dependencies — would be border-reachable and
    /// pairwise-reachable under this oracle's routing. The round verdict is
    /// then a pure function of the plan-host aliveness vector, which is what
    /// lets the verdict cache keep the entry across a plan swap whose delta
    /// is disjoint from the entry's key.
    ///
    /// `semi` when the verdict is a pure function of slot-wise
    /// ATTACHMENT-effective aliveness: an instance is alive iff its host,
    /// the host's adjacent routing nodes, and the host's incident link
    /// components are all effectively alive, and any two attachment-alive
    /// hosts are mutually and border reachable. The verdict cache retains a
    /// semi entry across a plan swap only when its key is also disjoint from
    /// the changed hosts' attachment components as precomputed by
    /// verdict_support::host_attachment — an oracle returning semi MUST make
    /// that classification depend on hosts only through exactly those
    /// components.
    ///
    /// Degrading any round to `unclean` is always safe — the default
    /// classifies nothing, so test doubles and exotic oracles simply forgo
    /// connected judging and cross-plan reuse, never corrupt them.
    ///
    /// An oracle that returns `clean` or `semi` MUST also name each host's
    /// attachment (append_attachment).
    [[nodiscard]] virtual round_class classify_round(
        std::span<const component_id> raw_failed) {
        (void)raw_failed;
        return round_class::unclean;
    }

    /// Appends the attachment of `host` to `out`: the components besides the
    /// host whose effective failure can make border_reachable(host) false in
    /// a connected round — its adjacent routing nodes and the link
    /// components of its incident edges, exactly append_host_attachment
    /// (topology/links.hpp) over this oracle's graph and consulted_links().
    ///
    /// requirement_evaluator judges a connected round by its failures with
    /// it. The host, its attachment and their fault-tree leaves form the
    /// host's attachment closure. Fault trees are monotone (every gate has a
    /// child, k >= 1), so a component that is not raw-failed and none of
    /// whose leaves is raw-failed is effectively alive. A connected round
    /// therefore detaches only hosts whose closure holds a raw-failed
    /// component, and the evaluator asks border_reachable about those alone.
    ///
    /// The base class classifies nothing connected, so it is never asked and
    /// names none; it throws.
    virtual void append_attachment(node_id host,
                                   std::vector<component_id>& out) const {
        (void)host;
        (void)out;
        throw std::logic_error{
            "reachability_oracle: an oracle that classifies connected rounds "
            "must name host attachments"};
    }

    /// Creates an independent oracle over the same topology, with its own
    /// per-round caches — what a parallel assessment worker needs. Returns
    /// nullptr when the oracle cannot be cloned (stateful test doubles).
    [[nodiscard]] virtual std::unique_ptr<reachability_oracle> clone() const {
        return nullptr;
    }

    /// The link attachment this oracle consults when judging reachability,
    /// or nullptr when links are treated as infallible. Anything that
    /// derives per-component reasoning from an oracle (symmetry signatures,
    /// the verdict-cache support set) must see the SAME attachment —
    /// scenario::validate() enforces the match, closing the historic
    /// recloud_context foot-gun where a forgotten `links` pointer silently
    /// made the verdict cache unsound.
    [[nodiscard]] virtual const link_attachment* consulted_links()
        const noexcept {
        return nullptr;
    }
};

/// Creates a fresh routing oracle for a worker (each worker owns one). Used
/// by both the MapReduce-style execution engine and the parallel assessment
/// backend.
using oracle_factory = std::function<std::unique_ptr<reachability_oracle>()>;

}  // namespace recloud
