#include "app/requirement_eval.hpp"

namespace recloud {

requirement_evaluator::requirement_evaluator(const application& app,
                                             const deployment_plan& plan)
    : app_(&app), plan_(&plan) {
    offsets_.reserve(app.components().size());
    std::uint32_t offset = 0;
    for (const app_component& c : app.components()) {
        offsets_.push_back(offset);
        offset += c.replicas;
    }
    functional_.resize(offset, 0);
    attached_count_.resize(app.components().size(), 0);
    for (const reachability_requirement& req : app.requirements()) {
        has_internal_ = has_internal_ || req.source.has_value();
    }
}

bool requirement_evaluator::reliable_in_round(reachability_oracle& oracle,
                                              round_state& rs,
                                              round_class cls) {
    if (connected(cls)) {
        return reliable_connected(oracle);
    }
    const auto components = app_->components();
    const auto requirements = app_->requirements();
    const auto host_of = [&](std::uint32_t flat_index) {
        return plan_->hosts[flat_index];
    };

    // Base functional state: the instance's host is effectively alive.
    for (std::uint32_t i = 0; i < functional_.size(); ++i) {
        functional_[i] = rs.failed(host_of(i)) ? 0 : 1;
    }

    // External requirements refine exactly once: border reachability of a
    // host does not depend on other instances' functional state.
    for (const reachability_requirement& req : requirements) {
        if (req.source) {
            continue;
        }
        const std::uint32_t begin = offsets_[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        for (std::uint32_t i = begin; i < end; ++i) {
            if (functional_[i] != 0 && !oracle.border_reachable(host_of(i))) {
                functional_[i] = 0;
            }
        }
    }

    // Internal requirements run to a greatest fixpoint: strip instances
    // unreachable from every functional source instance until stable.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const reachability_requirement& req : requirements) {
            if (!req.source) {
                continue;
            }
            const std::uint32_t t_begin = offsets_[req.target];
            const std::uint32_t t_end = t_begin + components[req.target].replicas;
            const std::uint32_t s_begin = offsets_[*req.source];
            const std::uint32_t s_end = s_begin + components[*req.source].replicas;

            // Source-major iteration so oracles that cache per-source
            // floods (bfs_reachability) get cache hits: one pass per source
            // instance, marking every target instance it reaches.
            reached_.assign(t_end - t_begin, 0);
            for (std::uint32_t j = s_begin; j < s_end; ++j) {
                if (functional_[j] == 0) {
                    continue;
                }
                for (std::uint32_t i = t_begin; i < t_end; ++i) {
                    if (functional_[i] != 0 && reached_[i - t_begin] == 0 &&
                        oracle.host_to_host(host_of(j), host_of(i))) {
                        reached_[i - t_begin] = 1;
                    }
                }
            }
            for (std::uint32_t i = t_begin; i < t_end; ++i) {
                if (functional_[i] != 0 && reached_[i - t_begin] == 0) {
                    functional_[i] = 0;
                    changed = true;
                }
            }
        }
    }

    // Every requirement's target must keep >= K functional instances.
    for (const reachability_requirement& req : requirements) {
        const std::uint32_t begin = offsets_[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        std::uint32_t functional_count = 0;
        for (std::uint32_t i = begin; i < end; ++i) {
            functional_count += functional_[i];
        }
        if (functional_count < req.min_reachable) {
            return false;
        }
    }
    return true;
}

bool requirement_evaluator::reliable_connected(reachability_oracle& oracle) {
    const auto components = app_->components();

    // In a connected round an instance reaches another on a distinct host
    // iff both are attached, and attachment is border reachability. So an
    // instance is functional iff it is attached, unless a requirement on
    // its component has a source with no attached instance: that strips
    // the whole target, whose K check then fails (K >= 1). The greatest
    // fixpoint therefore holds iff every target keeps K attached instances
    // and every source has one.
    for (app_component_id c = 0; c < components.size(); ++c) {
        const std::uint32_t begin = offsets_[c];
        const std::uint32_t end = begin + components[c].replicas;
        std::uint32_t attached = 0;
        for (std::uint32_t i = begin; i < end; ++i) {
            attached += oracle.border_reachable(plan_->hosts[i]) ? 1 : 0;
        }
        attached_count_[c] = attached;
    }
    for (const reachability_requirement& req : app_->requirements()) {
        if (attached_count_[req.target] < req.min_reachable ||
            (req.source && attached_count_[*req.source] == 0)) {
            return false;
        }
    }
    return true;
}

}  // namespace recloud
