// Figure 8: accuracy of deployment assessment.
//
// 95% confidence interval width (Eq. 3) of the assessed reliability score
// versus the number of sampling rounds, for 1-of-2 / 2-of-3 / 4-of-5 /
// 8-of-10 redundancy in the large data center. The paper finds 10^4 rounds
// lands the CIW around 1e-4.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Figure 8: accuracy of deployment assessment",
                        "Figure 8, §4.2.1");

    const data_center_scale scale =
        bench::full_scale() ? data_center_scale::large : data_center_scale::medium;
    auto infra = fat_tree_infrastructure::build(scale);
    std::printf("data center: %s\n\n", to_string(scale));

    struct setting {
        int k;
        int n;
    };
    const std::vector<setting> settings{{1, 2}, {2, 3}, {4, 5}, {8, 10}};
    const std::vector<std::size_t> round_counts =
        bench::full_scale()
            ? std::vector<std::size_t>{1000, 3000, 10000, 30000, 100000}
            : std::vector<std::size_t>{1000, 3000, 10000, 30000};

    extended_dagger_sampler sampler{infra.registry().probabilities(), 7};
    parallel_backend assessor = bench::make_serial_backend(infra, sampler);
    neighbor_generator neighbors{infra.topology(), anti_affinity::rack, 11};

    std::printf("%-12s %10s %14s %14s\n", "redundancy", "rounds", "reliability",
                "CIW95");
    for (const auto& [k, n] : settings) {
        const application app = application::k_of_n(k, n);
        const deployment_plan plan = neighbors.initial_plan(n);
        for (const std::size_t rounds : round_counts) {
            const assessment_stats stats = assessor.assess(app, plan, rounds);
            std::printf("%d-of-%-8d %10zu %14.5f %14.2e\n", k, n, rounds,
                        stats.reliability, stats.ciw95);
        }
        std::printf("\n");
    }
    std::printf("paper shape: CIW95 decreases with rounds (~1/sqrt(n));\n"
                "             10^4 rounds -> CIW95 around 1e-3..1e-4\n");
    return 0;
}
