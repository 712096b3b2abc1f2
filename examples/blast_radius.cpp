// Blast-radius analysis: after deploying an application, rank the shared
// infrastructure (power supplies, border switches, the deployment's own
// racks) by how much reliability the deployment would lose if that
// component went down — the proactive version of the paper's §1 incident
// stories (GitHub's power disruption, Azure's storage tier).
#include <chrono>
#include <cstdio>
#include <memory>

#include "assess/criticality.hpp"
#include "core/recloud.hpp"
#include "sampling/extended_dagger.hpp"

int main() {
    using namespace recloud;

    auto infra = fat_tree_infrastructure::build(data_center_scale::tiny);
    const application app = application::k_of_n(3, 4);

    // Deploy with reCloud first.
    re_cloud system{infra};
    deployment_request request;
    request.app = app;
    request.desired_reliability = 1.0;
    request.max_search_time = std::chrono::seconds{3};
    const deployment_response response = system.find_deployment(request);
    std::printf("deployed 3-of-4 at reliability %.5f\n\n",
                response.stats.reliability);

    // Candidates: every power supply, every border switch, and the racks
    // hosting the plan.
    std::vector<component_id> candidates = infra.power().supplies;
    for (const node_id border : infra.topology().border_switches) {
        candidates.push_back(border);
    }
    for (const node_id host : response.plan.hosts) {
        candidates.push_back(infra.tree().edge_of_host(host));
    }

    extended_dagger_sampler sampler{infra.registry().probabilities(), 99};
    // The scenario's oracle is built over the forest the rounds carry, so it
    // answers from its failure index instead of the per-slot fallback.
    const std::unique_ptr<reachability_oracle> oracle =
        system.snapshot()->make_oracle();
    const criticality_report report = analyze_criticality(
        sampler, &infra.forest(), infra.registry().size(), *oracle, app,
        response.plan, candidates, {.rounds = 20000, .seed = 5});

    std::printf("%-28s %16s %10s\n", "component", "R | comp down", "impact");
    for (const criticality_entry& entry : report.entries) {
        std::printf("%-28s %16.5f %10.5f%s\n",
                    infra.registry().name(entry.component).c_str(),
                    entry.conditional_reliability, entry.impact,
                    entry.impact > 0.05 ? "  <-- blast radius!" : "");
    }
    std::printf("\nbaseline reliability: %.5f — components near the top are\n"
                "the shared dependencies to fix (or to avoid at deploy time).\n",
                report.baseline.reliability);
    return 0;
}
