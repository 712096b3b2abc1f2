// Ablation C: sampler choice — Monte-Carlo (INDaaS strawman) vs extended
// dagger (reCloud) vs antithetic variates (extension).
//
// Two views: (1) time to generate + route-and-check a 10^4-round
// assessment; (2) empirical standard deviation of the reliability estimate
// over repeated independent assessments of the SAME plan — the
// variance-reduction effect §3.2.2 claims for dagger sampling, measured
// end-to-end through the full pipeline.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "sampling/antithetic.hpp"
#include "sampling/extended_dagger.hpp"
#include "sampling/monte_carlo.hpp"
#include "search/neighbor.hpp"
#include "util/stats.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Ablation C: sampler comparison (time & variance)",
                        "§3.2.2's variance-reduction claim");

    const data_center_scale scale =
        bench::full_scale() ? data_center_scale::large : data_center_scale::medium;
    auto infra = fat_tree_infrastructure::build(scale);
    std::printf("data center: %s\n\n", to_string(scale));

    const application app = application::k_of_n(4, 5);
    neighbor_generator neighbors{infra.topology(), anti_affinity::rack, 19};
    const deployment_plan plan = neighbors.initial_plan(5);

    const std::size_t rounds = 10000;
    const int repetitions = bench::full_scale() ? 40 : 20;

    struct sampler_entry {
        const char* label;
        std::unique_ptr<failure_sampler> sampler;
    };
    sampler_entry entries[] = {
        {"monte-carlo", std::make_unique<monte_carlo_sampler>(
                            infra.registry().probabilities(), 1)},
        {"ext-dagger", std::make_unique<extended_dagger_sampler>(
                           infra.registry().probabilities(), 1)},
        {"antithetic", std::make_unique<antithetic_sampler>(
                           infra.registry().probabilities(), 1)},
    };

    std::printf("%-12s %16s %14s %16s\n", "sampler", "assess(ms)",
                "mean R", "stddev of R-hat");
    for (auto& entry : entries) {
        parallel_backend assessor =
            bench::make_serial_backend(infra, *entry.sampler);
        const double assess_ms = bench::time_ms(
            [&] { (void)assessor.assess(app, plan, rounds); });

        running_stats estimates;
        for (int rep = 0; rep < repetitions; ++rep) {
            assessor.reset_stream(100 + static_cast<std::uint64_t>(rep));
            estimates.add(assessor.assess(app, plan, rounds).reliability);
        }
        std::printf("%-12s %16.1f %14.5f %16.2e\n", entry.label, assess_ms,
                    estimates.mean(), estimates.stddev());
    }
    std::printf(
        "\nexpected: dagger assessments are fastest AND have the lowest\n"
        "          estimator spread at equal round counts (the §3.2.2\n"
        "          variance-reduction effect, end to end). Antithetic pairs\n"
        "          cancel within-pair noise of smooth estimands but barely\n"
        "          move this K-of-N threshold indicator — which is exactly\n"
        "          why the paper picked dagger over classic alternatives.\n");
    return 0;
}
