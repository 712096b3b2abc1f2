// Figure 11: complex application structures.
//
// Time to evolve and assess one plan for multi-layer applications (1-4
// layers, 4-of-5 per layer) and microservice applications ("X-Y": X fully
// meshed cores, Y supports per core, 4-of-5 each), across data center
// scales, without network transformations. The paper reports that the
// number of layers barely matters and that even the 10-20 structure (210
// components) stays under 1 s per plan at the large scale.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Figure 11: complex application structures",
                        "Figure 11, §4.2.3");

    struct structure {
        std::string label;
        application app;
    };
    std::vector<structure> structures;
    for (int layers = 1; layers <= 4; ++layers) {
        structures.push_back({std::to_string(layers) + "-layer",
                              application::layered(layers, 4, 5)});
    }
    structures.push_back({"micro(3-5)", application::microservice(3, 5, 4, 5)});
    structures.push_back({"micro(5-10)", application::microservice(5, 10, 4, 5)});
    structures.push_back({"micro(10-20)", application::microservice(10, 20, 4, 5)});

    const std::size_t rounds = 10000;

    std::printf("%-8s %-14s %8s %10s %18s\n", "scale", "structure", "#comps",
                "#insts", "evolve+assess(ms)");
    for (const data_center_scale scale : bench::all_scales()) {
        auto infra = fat_tree_infrastructure::build(scale);
        extended_dagger_sampler sampler{infra.registry().probabilities(), 5};
        parallel_backend assessor = bench::make_serial_backend(infra, sampler);
        for (const auto& s : structures) {
            const std::uint32_t instances = s.app.total_instances();
            if (instances > infra.topology().hosts.size()) {
                std::printf("%-8s %-14s %8zu %10u %18s\n", to_string(scale),
                            s.label.c_str(), s.app.components().size(), instances,
                            "(too large)");
                continue;
            }
            // The biggest structures get fewer repetitions by default.
            const int plans_per_cell =
                bench::full_scale() ? 5 : (instances > 200 ? 1 : 3);
            neighbor_generator neighbors{infra.topology(), anti_affinity::none,
                                         23};
            deployment_plan plan = neighbors.initial_plan(instances);
            (void)assessor.assess(s.app, plan, 500);  // warm-up

            const double total_ms = bench::time_ms([&] {
                for (int p = 0; p < plans_per_cell; ++p) {
                    plan = neighbors.neighbor_of(plan);
                    (void)assessor.assess(s.app, plan, rounds);
                }
            });
            std::printf("%-8s %-14s %8zu %10u %18.1f\n", to_string(scale),
                        s.label.c_str(), s.app.components().size(), instances,
                        total_ms / plans_per_cell);
        }
    }
    std::printf("\npaper shape: layer count has little impact; micro(10-20)\n"
                "             (210 components) < ~1 s per plan at large scale\n");
    return 0;
}
