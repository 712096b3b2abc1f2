// Ablation C: sampler choice — Monte-Carlo (INDaaS strawman) vs extended
// dagger (reCloud).
//
// Three views: (1) time to generate + route-and-check an assessment;
// (2) empirical standard deviation of the reliability estimate over
// repeated independent assessments of the SAME plan — the
// variance-reduction effect §3.2.2 claims for dagger sampling, measured
// end-to-end through the full pipeline; (3) how honest the reported error
// bound is: the mean CIW95 over the empirical one (4 x that standard
// deviation), both for Eq. 2 over the counts and for the CIW95 the
// assessment reports. 10^4 rounds are 10 batches, so the report is Eq. 2;
// 40 batches give V from the batch replicates.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
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

    const std::size_t replicated_rounds = 40 * default_batch_rounds;
    const int repetitions = bench::full_scale() ? 100 : 20;

    struct sampler_entry {
        const char* label;
        std::unique_ptr<failure_sampler> sampler;
    };
    sampler_entry entries[] = {
        {"monte-carlo", std::make_unique<monte_carlo_sampler>(
                            infra.registry().probabilities(), 1)},
        {"ext-dagger", std::make_unique<extended_dagger_sampler>(
                           infra.registry().probabilities(), 1)},
    };

    std::printf("%-12s %8s %11s %10s %9s %12s %10s %10s\n", "sampler",
                "rounds", "replicates", "assess(ms)", "mean R",
                "sd of R-hat", "Eq.2/emp", "CIW95/emp");
    for (auto& entry : entries) {
        parallel_backend assessor =
            bench::make_serial_backend(infra, *entry.sampler);
        for (const std::size_t rounds : {std::size_t{10000}, replicated_rounds}) {
            const double assess_ms = bench::time_ms(
                [&] { (void)assessor.assess(app, plan, rounds); });
            running_stats estimates;
            running_stats eq2_ciw;
            running_stats reported_ciw;
            std::size_t replicates = 0;
            for (int rep = 0; rep < repetitions; ++rep) {
                assessor.reset_stream(100 + static_cast<std::uint64_t>(rep));
                const assessment_stats stats = assessor.assess(app, plan, rounds);
                estimates.add(stats.reliability);
                eq2_ciw.add(make_assessment_stats(stats.reliable, stats.rounds).ciw95);
                reported_ciw.add(stats.ciw95);
                replicates = stats.replicates;
            }
            const double sd = std::sqrt(estimates.sample_variance());
            std::printf("%-12s %8zu %11zu %10.1f %9.5f %12.2e %10.2f %10.2f\n",
                        entry.label, rounds, replicates, assess_ms,
                        estimates.mean(), sd, eq2_ciw.mean() / (4.0 * sd),
                        reported_ciw.mean() / (4.0 * sd));
        }
    }
    std::printf(
        "\nexpected: dagger assessments are fastest AND have the lowest\n"
        "          estimator spread at equal round counts (the §3.2.2\n"
        "          variance-reduction effect, end to end). Eq. 2 treats\n"
        "          rounds as iid and overstates dagger's spread (ratio > 1);\n"
        "          with replicates the reported CIW95 reads about 1 for\n"
        "          both samplers (replicates 0 = the report is Eq. 2).\n");
    return 0;
}
