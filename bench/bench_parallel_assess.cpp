// Assessment-backend comparison: serial vs deterministic parallel vs the
// wire-format MapReduce engine (§3.2.1, §4.2.4).
//
// All three run the same batch scheme (batch b from the forked substream
// (epoch, b)), so every row must report the identical reliability; the bench
// exits 1 when one does not. The parallel backend removes the engine's
// serialization and per-assessment context setup AND moves sampling into the
// workers, so it scales on both paper workloads. Expected on a >= 4-core
// host: >= 3x speedup over serial at 10^5 rounds.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "assess/backend.hpp"
#include "bench_util.hpp"
#include "core/recloud.hpp"
#include "routing/fat_tree_routing.hpp"
#include "exec/engine.hpp"
#include "sampling/extended_dagger.hpp"
#include "search/neighbor.hpp"

int main() {
    using namespace recloud;
    bench::print_header("Assessment backends: serial vs parallel vs engine",
                        "§3.2.1 parallel route-and-check (cf. Figure 12)");

    const data_center_scale scale =
        bench::full_scale() ? data_center_scale::large : data_center_scale::medium;
    auto infra = fat_tree_infrastructure::build(scale);
    const unsigned cores = std::thread::hardware_concurrency();
    const std::size_t rounds = 100'000;
    std::printf("data center: %s, host cpu cores: %u, rounds: %zu\n",
                to_string(scale), cores, rounds);
    if (cores < 4) {
        std::printf("NOTE: < 4 cores — wall-clock speedup is physically capped\n"
                    "      at the core count; the table then mostly measures\n"
                    "      the backends' coordination overhead.\n");
    }
    std::printf("\n");

    const oracle_factory factory = [&infra] {
        return std::make_unique<fat_tree_routing>(infra.tree());
    };

    std::vector<std::size_t> worker_counts{1, 2, 4};
    if (cores > 4) {
        worker_counts.push_back(cores);
    }

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
        std::printf("%-22s %12s %10s   reliability\n", "backend", "time (ms)",
                    "speedup");

        // Every row must judge the serial row's rounds.
        std::size_t reference_reliable = 0;
        const auto check = [&](const char* label,
                               const assessment_stats& stats) {
            if (stats.reliable == reference_reliable) {
                return true;
            }
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: %s -> %zu reliable rounds, "
                         "serial -> %zu\n",
                         label, stats.reliable, reference_reliable);
            return false;
        };

        // Serial reference: the batch scheme with one inline worker.
        extended_dagger_sampler serial_sampler{infra.registry().probabilities(), 3};
        parallel_backend serial =
            bench::make_serial_backend(infra, serial_sampler);
        assessment_stats serial_stats;
        const double serial_ms = bench::time_ms(
            [&] { serial_stats = serial.assess(w.app, plan, rounds); });
        reference_reliable = serial_stats.reliable;
        std::printf("%-22s %12.1f %9.2fx   %.5f\n", serial.name(), serial_ms, 1.0,
                    serial_stats.reliability);

        // Deterministic parallel backend at increasing worker counts.
        for (const std::size_t workers : worker_counts) {
            extended_dagger_sampler sampler{infra.registry().probabilities(), 3};
            parallel_backend parallel{infra.registry().size(), &infra.forest(),
                                      factory, sampler, {.threads = workers}};
            (void)parallel.assess(w.app, plan, 500);  // warm the pool
            parallel.reset_stream(3);
            assessment_stats stats;
            const double ms = bench::time_ms(
                [&] { stats = parallel.assess(w.app, plan, rounds); });
            char label[64];
            std::snprintf(label, sizeof label, "parallel (%zu workers)", workers);
            std::printf("%-22s %12.1f %9.2fx   %.5f\n", label, ms,
                        serial_ms / ms, stats.reliability);
            if (!check(label, stats)) {
                return 1;
            }
        }

        // Wire-format engine for contrast (real setup serialization and
        // per-assessment context setup; workers sample their own batches).
        for (const std::size_t workers : worker_counts) {
            extended_dagger_sampler sampler{infra.registry().probabilities(), 3};
            assessment_engine engine{infra.registry().size(), &infra.forest(),
                                     factory, sampler, {.workers = workers}};
            (void)engine.assess(w.app, plan, 500);  // warm the pool
            engine.reset_stream(3);
            assessment_stats stats;
            const double ms = bench::time_ms(
                [&] { stats = engine.assess(w.app, plan, rounds); });
            char label[64];
            std::snprintf(label, sizeof label, "engine (%zu workers)", workers);
            std::printf("%-22s %12.1f %9.2fx   %.5f\n", label, ms,
                        serial_ms / ms, stats.reliability);
            if (!check(label, stats)) {
                return 1;
            }
        }

        // Fault-injected engine: >= 20% of dispatch attempts crash or
        // corrupt their result frame; the recovery layer (retry,
        // re-dispatch, degrade) must reproduce the fault-free counts
        // bit-for-bit while paying the repair cost.
        {
            const chaos_schedule chaos{{.seed = 0xc405,
                                        .crash_rate = 0.12,
                                        .corrupt_rate = 0.08,
                                        .truncate_rate = 0.05}};
            extended_dagger_sampler sampler{infra.registry().probabilities(), 3};
            assessment_engine engine{infra.registry().size(), &infra.forest(),
                                     factory, sampler,
                                     {.workers = 4,
                                      .max_attempts = 6,
                                      .chaos = &chaos}};
            (void)engine.assess(w.app, plan, 500);  // warm the pool
            engine.reset_stream(3);
            assessment_stats stats;
            const double ms = bench::time_ms(
                [&] { stats = engine.assess(w.app, plan, rounds); });
            std::printf("%-22s %12.1f %9.2fx   %.5f\n",
                        "engine (4 w, 25% chaos)", ms, serial_ms / ms,
                        stats.reliability);
            const engine_stats& es = engine.stats();
            std::printf(
                "    chaos recovery: %llu failures -> %llu retries, %llu "
                "re-dispatches, %llu degraded of %llu batches\n",
                static_cast<unsigned long long>(es.failures()),
                static_cast<unsigned long long>(es.retries),
                static_cast<unsigned long long>(es.redispatches),
                static_cast<unsigned long long>(es.degraded),
                static_cast<unsigned long long>(es.batches));
            if (!check("engine (4 w, 25% chaos)", stats)) {
                return 1;
            }
        }
        std::printf("\n");
    }
    std::printf(
        "expected shape: parallel tracks core count (no serialization, sampling\n"
        "                inside workers); engine pays Figure 12's wire + context\n"
        "                costs; every row reports the identical reliability.\n");
    return 0;
}
