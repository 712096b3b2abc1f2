// Figure 10: time to evolve and assess one deployment plan, single-layer
// application, across data center scales and redundancy settings —
// WITHOUT the help of network transformations (symmetry off), as in the
// paper. The paper reports <= 270 ms per plan at the large scale with 10^4
// rounds, and that K/N barely matters (context setup per round dominates).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Figure 10: evolve+assess time per plan (K-of-N)",
                        "Figure 10, §4.2.3");

    struct setting {
        int k;
        int n;
    };
    const std::vector<setting> settings{{1, 2}, {2, 3}, {4, 5}, {8, 10}};
    const std::size_t rounds = 10000;
    const int plans_per_cell = bench::full_scale() ? 10 : 5;

    std::printf("%-8s %-12s %18s\n", "scale", "redundancy",
                "evolve+assess(ms)");
    for (const data_center_scale scale : bench::all_scales()) {
        auto infra = fat_tree_infrastructure::build(scale);
        extended_dagger_sampler sampler{infra.registry().probabilities(), 3};
        parallel_backend assessor = bench::make_serial_backend(infra, sampler);
        for (const auto& [k, n] : settings) {
            const application app = application::k_of_n(k, n);
            neighbor_generator neighbors{infra.topology(), anti_affinity::none,
                                         17};
            deployment_plan plan = neighbors.initial_plan(n);
            // Warm-up: one assessment to page in the caches.
            (void)assessor.assess(app, plan, 1000);

            const double total_ms = bench::time_ms([&] {
                for (int p = 0; p < plans_per_cell; ++p) {
                    plan = neighbors.neighbor_of(plan);  // evolve
                    (void)assessor.assess(app, plan, rounds);  // assess
                }
            });
            std::printf("%-8s %d-of-%-8d %18.1f\n", to_string(scale), k, n,
                        total_ms / plans_per_cell);
        }
    }
    std::printf("\npaper shape: <= ~270 ms per plan at large scale; K and N have\n"
                "             little impact (per-round context setup dominates)\n");
    return 0;
}
