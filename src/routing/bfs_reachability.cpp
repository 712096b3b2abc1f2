#include "routing/bfs_reachability.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace recloud {

namespace {

/// FNV-1a over a sequence of 32-bit ids — cheap pre-check before the exact
/// element-wise comparison (hashes can collide; std::equal decides).
template <typename T>
std::uint64_t hash_ids(std::span<const T> ids) noexcept {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const T id : ids) {
        hash ^= static_cast<std::uint64_t>(id);
        hash *= 1099511628211ULL;
    }
    return hash;
}

}  // namespace

bfs_reachability::bfs_reachability(const built_topology& topo,
                                   const link_attachment* links)
    : topo_(&topo),
      links_(links),
      external_mark_(topo.graph.node_count(), 0),
      source_mark_(topo.graph.node_count(), 0),
      target_mark_(topo.graph.node_count(), 0) {
    if (!topo.graph.frozen()) {
        throw std::logic_error{"bfs_reachability: topology graph not frozen"};
    }
    if (links_ != nullptr) {
        if (links_->component_of_edge.size() != topo.graph.edge_count()) {
            throw std::invalid_argument{
                "bfs_reachability: link attachment does not match topology"};
        }
        edge_components_ = links_->component_of_edge;
    }
}

void bfs_reachability::begin_round(round_state& rs) {
    rs_ = &rs;
    external_flooded_ = false;
    cached_source_ = invalid_node;
    targets_active_ = false;
}

void bfs_reachability::begin_round(round_state& rs,
                                   std::span<const node_id> query_hosts) {
    begin_round(rs);
    targets_active_ = true;
    // Size + hash short-circuit: across the thousands of rounds of one plan
    // the hint is identical, and across plans it usually differs in content
    // — both cases are decided without walking the whole host list twice.
    const std::uint64_t hash = hash_ids(query_hosts);
    if (hint_hosts_.size() == query_hosts.size() && hash == hint_hash_ &&
        std::equal(hint_hosts_.begin(), hint_hosts_.end(),
                   query_hosts.begin())) {
        return;  // same hint as last time (one plan = thousands of rounds)
    }
    for (const node_id host : unique_targets_) {
        target_mark_[host] = 0;
    }
    hint_hash_ = hash;
    hint_hosts_.assign(query_hosts.begin(), query_hosts.end());
    unique_targets_.clear();
    for (const node_id host : query_hosts) {
        if (target_mark_[host] == 0) {
            target_mark_[host] = 1;
            unique_targets_.push_back(host);
        }
    }
}

bool bfs_reachability::flood(node_id source, std::vector<std::uint32_t>& mark,
                             std::uint32_t stamp) {
    RECLOUD_SPAN("route.flood");
    RECLOUD_COUNTER_INC("route.floods");
    queue_.clear();
    if (rs_->failed(source) && topo_->graph.kind(source) != node_kind::external) {
        return false;  // a failed source reaches nothing (external never fails)
    }
    // With a target hint, count the alive targets still unmarked; the flood
    // may stop once the count reaches zero — no query of this round can see
    // the difference. SIZE_MAX disables the early exit.
    std::size_t remaining = static_cast<std::size_t>(-1);
    if (targets_active_) {
        remaining = 0;
        for (const node_id target : unique_targets_) {
            if (!rs_->failed(target)) {
                ++remaining;
            }
        }
    }
    mark[source] = stamp;
    if (targets_active_) {
        if (target_mark_[source] != 0) {
            --remaining;  // source is alive here, so it was counted
        }
        if (remaining == 0) {
            return false;
        }
    }
    queue_.push_back(source);
    // Pre-resolved link components: one branch decides the loop flavor
    // instead of a per-neighbor null check + lambda call.
    const component_id* link_of_edge =
        edge_components_.empty() ? nullptr : edge_components_.data();
    std::size_t head = 0;
    while (head < queue_.size()) {
        const node_id current = queue_[head++];
        const auto neighbors = topo_->graph.neighbors(current);
        if (link_of_edge == nullptr) {
            for (const node_id next : neighbors) {
                if (mark[next] == stamp || rs_->failed(next)) {
                    continue;
                }
                mark[next] = stamp;
                if (targets_active_ && target_mark_[next] != 0 &&
                    --remaining == 0) {
                    return false;
                }
                queue_.push_back(next);
            }
        } else {
            const auto edges = topo_->graph.incident_edges(current);
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                const node_id next = neighbors[i];
                if (mark[next] == stamp || rs_->failed(next)) {
                    continue;
                }
                const component_id link = link_of_edge[edges[i]];
                if (link != invalid_node && rs_->failed(link)) {
                    continue;
                }
                mark[next] = stamp;
                if (targets_active_ && target_mark_[next] != 0 &&
                    --remaining == 0) {
                    return false;
                }
                queue_.push_back(next);
            }
        }
    }
    return true;
}

void bfs_reachability::ensure_external_flood() {
    if (external_flooded_) {
        return;
    }
    // One flood from the external node covers every border switch: a border
    // switch that is alive is adjacent to external, so anything reachable
    // from a border switch is reachable from external.
    //
    // Incremental reseeding: the alive subgraph is a pure function of the
    // round's raw failed-set (plus the fault forest fixed at round_state
    // construction), so when the current round replays the exact raw set of
    // the previous flood — the CRN streams do exactly that across candidate
    // plans — the existing marks are still correct and only need settling
    // if the earlier flood was cut short by a different query hint.
    const std::span<const component_id> raw = rs_->raw_failed_list();
    const std::uint64_t hash = hash_ids(raw);
    if (last_flood_valid_ && last_flood_rs_ == rs_ &&
        hash == last_flood_hash_ && last_flood_raw_.size() == raw.size() &&
        std::equal(last_flood_raw_.begin(), last_flood_raw_.end(),
                   raw.begin())) {
        RECLOUD_COUNTER_INC("route.flood_reuse");
        if (!external_settled_) {
            settle_external_flood();
        }
        external_flooded_ = true;
        return;
    }
    ++external_stamp_;
    if (external_stamp_ == 0) {
        // uint32 wrap-around: wipe stale marks, restart the cycle at 1.
        std::fill(external_mark_.begin(), external_mark_.end(), 0);
        external_stamp_ = 1;
    }
    external_settled_ = flood(topo_->external, external_mark_, external_stamp_);
    external_flooded_ = true;
    last_flood_valid_ = true;
    last_flood_rs_ = rs_;
    last_flood_hash_ = hash;
    last_flood_raw_.assign(raw.begin(), raw.end());
}

void bfs_reachability::settle_external_flood() {
    RECLOUD_SPAN("route.flood");
    RECLOUD_COUNTER_INC("route.floods");
    // Reseed from the entire marked region: re-flooding from the source
    // with the same stamp would stall at the old frontier, because marked
    // neighbors are skipped and the nodes queued behind the early exit were
    // never drained.
    queue_.clear();
    const std::size_t nodes = topo_->graph.node_count();
    for (node_id n = 0; n < nodes; ++n) {
        if (external_mark_[n] == external_stamp_) {
            queue_.push_back(n);
        }
    }
    const component_id* link_of_edge =
        edge_components_.empty() ? nullptr : edge_components_.data();
    std::size_t head = 0;
    while (head < queue_.size()) {
        const node_id current = queue_[head++];
        const auto neighbors = topo_->graph.neighbors(current);
        if (link_of_edge == nullptr) {
            for (const node_id next : neighbors) {
                if (external_mark_[next] == external_stamp_ ||
                    rs_->failed(next)) {
                    continue;
                }
                external_mark_[next] = external_stamp_;
                queue_.push_back(next);
            }
        } else {
            const auto edges = topo_->graph.incident_edges(current);
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                const node_id next = neighbors[i];
                if (external_mark_[next] == external_stamp_ ||
                    rs_->failed(next)) {
                    continue;
                }
                const component_id link = link_of_edge[edges[i]];
                if (link != invalid_node && rs_->failed(link)) {
                    continue;
                }
                external_mark_[next] = external_stamp_;
                queue_.push_back(next);
            }
        }
    }
    external_settled_ = true;
}

bool bfs_reachability::border_reachable(node_id host) {
    if (rs_ == nullptr) {
        throw std::logic_error{"bfs_reachability: begin_round not called"};
    }
    ensure_external_flood();
    return external_mark_[host] == external_stamp_;
}

round_class bfs_reachability::classify_round(
    std::span<const component_id> raw_failed) {
    (void)raw_failed;  // the flood reads the round_state directly
    if (rs_ == nullptr) {
        throw std::logic_error{"bfs_reachability: begin_round not called"};
    }
    // The class needs the whole external region: flood without the target
    // hint rather than settle a truncated flood, which rescans every node.
    const bool hinted = targets_active_;
    targets_active_ = false;
    ensure_external_flood();
    targets_active_ = hinted;
    if (!external_settled_) {
        settle_external_flood();
    }
    // Cheap sufficient test before the host scan: a failed switch strands
    // every single-homed host hanging off it (the commonest unclean round,
    // a failed top-of-rack switch).
    const network_graph& graph = topo_->graph;
    for (const component_id id : rs_->raw_failed_list()) {
        if (id >= graph.node_count() || id == topo_->external ||
            graph.kind(id) == node_kind::host) {
            continue;
        }
        for (const node_id next : graph.neighbors(id)) {
            if (graph.kind(next) == node_kind::host &&
                graph.neighbors(next).size() == 1) {
                return round_class::unclean;
            }
        }
    }
    // Fully connected for any plan: every host is attached to the
    // external-connected alive region. An alive host must be IN the region
    // (if it merely neighbors it, the settled flood would have marked it);
    // a failed host — assumed alive, as the cached key treats its aliveness
    // separately — needs an alive neighbor in the region via an alive link.
    const component_id* link_of_edge =
        edge_components_.empty() ? nullptr : edge_components_.data();
    const std::size_t nodes = topo_->graph.node_count();
    for (node_id h = 0; h < nodes; ++h) {
        if (topo_->graph.kind(h) != node_kind::host) {
            continue;
        }
        if (external_mark_[h] == external_stamp_) {
            continue;
        }
        if (!rs_->failed(h)) {
            return round_class::unclean;  // alive yet unreachable
        }
        bool attached = false;
        const auto neighbors = topo_->graph.neighbors(h);
        if (link_of_edge == nullptr) {
            for (const node_id next : neighbors) {
                if (external_mark_[next] == external_stamp_) {
                    attached = true;
                    break;
                }
            }
        } else {
            const auto edges = topo_->graph.incident_edges(h);
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                if (external_mark_[neighbors[i]] != external_stamp_) {
                    continue;
                }
                const component_id link = link_of_edge[edges[i]];
                if (link != invalid_node && rs_->failed(link)) {
                    continue;
                }
                attached = true;
                break;
            }
        }
        if (!attached) {
            return round_class::unclean;
        }
    }
    return round_class::clean;
}

bool bfs_reachability::host_to_host(node_id a, node_id b) {
    if (rs_ == nullptr) {
        throw std::logic_error{"bfs_reachability: begin_round not called"};
    }
    if (rs_->failed(a) || rs_->failed(b)) {
        return false;
    }
    if (a == b) {
        return true;
    }
    if (cached_source_ != a || cached_source_epoch_ != rs_->epoch()) {
        // Fresh stamp per flood: several sources may be flooded within one
        // round and their marks must not bleed into each other.
        ++source_stamp_;
        if (source_stamp_ == 0) {
            // uint32 wrap-around: a mark written 2^32 floods ago would alias
            // a fresh stamp. Wipe the array and restart the cycle at 1.
            std::fill(source_mark_.begin(), source_mark_.end(), 0);
            source_stamp_ = 1;
        }
        flood(a, source_mark_, source_stamp_);
        cached_source_ = a;
        cached_source_epoch_ = rs_->epoch();
    }
    return source_mark_[b] == source_stamp_;
}

std::unique_ptr<reachability_oracle> bfs_reachability::clone() const {
    return std::make_unique<bfs_reachability>(*topo_, links_);
}

}  // namespace recloud
