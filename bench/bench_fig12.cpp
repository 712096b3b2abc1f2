// Figure 12: parallel execution.
//
// Assessment time with the MapReduce-style execution engine for 1-4 worker
// nodes and 10^3 / 10^4 / 10^5 rounds on the large data center. The paper
// finds that parallel execution only pays off for very large round counts:
// at small counts, serialization/transfer and per-worker context setup eat
// the gains.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "routing/fat_tree_routing.hpp"
#include "exec/engine.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Figure 12: parallel execution", "Figure 12, §4.2.4");

    const data_center_scale scale =
        bench::full_scale() ? data_center_scale::large : data_center_scale::medium;
    auto infra = fat_tree_infrastructure::build(scale);
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("data center: %s, host cpu cores: %u\n", to_string(scale), cores);
    if (cores < 4) {
        std::printf("NOTE: fewer cores than workers — wall-clock speedup is\n"
                    "      physically impossible on this host; the series then\n"
                    "      measure the engine's serialization + context-setup\n"
                    "      overhead (the paper's small-round-count effect).\n");
    }
    std::printf("\n");

    const std::vector<std::size_t> round_counts =
        bench::full_scale()
            ? std::vector<std::size_t>{1000, 10000, 100000}
            : std::vector<std::size_t>{1000, 10000, 50000};

    const oracle_factory factory = [&infra] {
        return std::make_unique<fat_tree_routing>(infra.tree(), nullptr,
                                                  &infra.forest());
    };

    // Two application weights. The paper's Java route-and-check was the
    // dominant per-round cost, so workers scaled. Here the master ships only
    // batch descriptors and every worker samples its own batches, so the
    // per-round work (sampling + a ~1 us fat-tree 4-of-5 check) is all on
    // the workers: once the rounds amortize the per-assessment setup and
    // context build, even the light 4-of-5 series scales with workers. The
    // microservice app restores the paper's compute balance (about 17x
    // heavier route-and-check per round in the paper regime, most rounds
    // being connected and judged per component), so its scaling shows the
    // paper's shape.
    struct workload {
        const char* label;
        application app;
    };
    const workload workloads[] = {
        {"4-of-5 (paper default)", application::k_of_n(4, 5)},
        {"microservice 5-10", application::microservice(5, 10, 4, 5)},
    };

    for (const auto& w : workloads) {
        neighbor_generator neighbors{infra.topology(), anti_affinity::none, 31};
        const deployment_plan plan =
            neighbors.initial_plan(w.app.total_instances());
        std::printf("--- %s ---\n", w.label);
        std::printf("%-10s", "rounds");
        for (int workers = 1; workers <= 4; ++workers) {
            std::printf(" %9d-wkr", workers);
        }
        std::printf("   (assessment time, ms)\n");
        for (const std::size_t rounds : round_counts) {
            std::printf("%-10zu", rounds);
            for (std::size_t workers = 1; workers <= 4; ++workers) {
                extended_dagger_sampler sampler{infra.registry().probabilities(),
                                                3};
                assessment_engine backend{
                    infra.registry().size(), &infra.forest(), factory, sampler,
                    {.workers = workers, .batch_rounds = 1000}};
                // Warm-up the pool threads, then measure.
                (void)backend.assess(w.app, plan, 500);
                const double ms = bench::time_ms(
                    [&] { (void)backend.assess(w.app, plan, rounds); });
                std::printf(" %13.1f", ms);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf(
        "paper shape: little/no benefit at 10^3-10^4 rounds (serialization &\n"
        "             context setup dominate); parallel workers pay off once\n"
        "             route-and-check dominates (10^5 rounds / heavy app)\n");
    return 0;
}
