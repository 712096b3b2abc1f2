// Cross-plan incremental assessment: end-to-end SA wall-clock with
// RECLOUD_INCREMENTAL off vs on, at EQUAL trajectories (pinned seed +
// deterministic schedule), recorded into BENCH_sa_incremental.json.
//
// The incremental machinery (DESIGN.md §11) is a pure speed knob: the
// verdict cache rebinds warm across the annealer's single-slot plan swaps
// and a CRN round journal (assess/round_journal.hpp) is replayed instead of
// re-sampling — one journal per worker of the batched backend; this bench
// runs the serial (one-worker) one. This bench
// ASSERTS that promise live — the winning plan, its assessment stats and
// every search counter must be bit-identical between the two runs, or the
// bench exits non-zero. The headline number is the speedup of the full
// find_deployment call.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/recloud.hpp"

namespace {

using namespace recloud;

std::string iso_now() {
    char buffer[32];
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    std::strftime(buffer, sizeof buffer, "%FT%TZ", &utc);
    return buffer;
}

struct run_result {
    double ms = 0.0;
    deployment_response response;
    verdict_cache_stats cache{};
};

struct regime {
    const char* name;
    /// Per-component failure probabilities (probability_model_options means).
    double switch_mean;
    double other_mean;
};

run_result run_search(const fat_tree_infrastructure& infra,
                      const recloud_options& options, bool incremental) {
    // The env vars override recloud_options, so pin both explicitly — the
    // bench must measure what it says it measures even under CI's forced
    // settings.
    ::setenv("RECLOUD_VERDICT_CACHE", "1", 1);
    ::setenv("RECLOUD_INCREMENTAL", incremental ? "1" : "0", 1);
    run_result result;
    re_cloud system{infra, options};
    deployment_request request{application::k_of_n(4, 5), 1.0,
                               std::chrono::seconds{600}};
    result.ms = recloud::bench::time_ms(
        [&] { result.response = system.find_deployment(request); });
    if (const verdict_cache_stats* stats = system.cache_stats()) {
        result.cache = *stats;
    }
    return result;
}

bool bit_identical(const deployment_response& a, const deployment_response& b) {
    return a.plan == b.plan && a.fulfilled == b.fulfilled &&
           a.stats.rounds == b.stats.rounds &&
           a.stats.reliable == b.stats.reliable &&
           a.stats.reliability == b.stats.reliability &&
           a.stats.variance == b.stats.variance &&
           a.stats.ciw95 == b.stats.ciw95 &&
           a.search.plans_evaluated == b.search.plans_evaluated &&
           a.search.plans_generated == b.search.plans_generated &&
           a.search.symmetric_skips == b.search.symmetric_skips;
}

void print_cache_line(const char* label, const verdict_cache_stats& c) {
    std::printf(
        "%-14s rounds=%llu hit_rate=%.3f warm=%llu cold=%llu retained=%llu "
        "cross_hits=%llu\n",
        label, static_cast<unsigned long long>(c.rounds), c.hit_rate(),
        static_cast<unsigned long long>(c.warm_rebinds),
        static_cast<unsigned long long>(c.cold_rebinds),
        static_cast<unsigned long long>(c.retained_entries),
        static_cast<unsigned long long>(c.cross_plan_hits));
}

}  // namespace

int main() {
    using recloud::bench::full_scale;
    recloud::bench::print_header(
        "cross-plan incremental assessment: SA inner-loop speedup",
        "sublinear-in-plan-changes assessment; equal-trajectory bit-identity");

    const data_center_scale scale = data_center_scale::medium;
    std::printf("data center: %s (k=%d)\n", to_string(scale),
                fat_tree_k_for(scale));

    recloud_options options;
    // The incremental on-path pays two irreducible full assessments (the
    // cold recording pass and the winner re-assessment on a fresh stream),
    // so speedup at n iterations is ~(n+1)F / (2F + (n-1)r) — too few
    // iterations understates the steady-state F/r. 80 iterations is still
    // a short SA run; real searches amortize the fixed cost further.
    options.assessment_rounds = full_scale() ? 10'000 : 4'000;
    options.max_iterations = full_scale() ? 200 : 80;
    options.seed = 17;
    options.deterministic_schedule = true;
    options.backend = assessment_backend_kind::serial;
    std::printf("rounds/assessment: %zu  iterations: %zu  seed: %llu\n",
                options.assessment_rounds, options.max_iterations,
                static_cast<unsigned long long>(options.seed));

    // Two probability regimes. "paper" is §4.1's evaluation setting (~1%
    // per component: every round carries a near-unique failure signature —
    // the incremental win is mostly the skipped re-sampling). "realistic"
    // is the 10^-3..10^-4 regime the verdict cache is designed for
    // (production AFR-scale rates): signatures repeat heavily, so journal
    // grouping and cross-plan retention collapse whole assessments into
    // hash probes. No regime below 5e-4: the probability model rounds to 4
    // decimals and clamps at 1e-4, so lower means degenerate to a uniform
    // distribution whose symmetry skips empty the candidate set.
    const regime regimes[] = {
        {"paper", 0.008, 0.01},
        {"realistic", 0.0005, 0.0005},
    };

    struct regime_result {
        const regime* r;
        run_result off;
        run_result on;
        bool identical = false;
        double speedup = 0.0;
    };
    std::vector<regime_result> results;
    bool all_identical = true;
    for (const regime& r : regimes) {
        infrastructure_options infra_options;
        infra_options.probabilities.switch_mean = r.switch_mean;
        infra_options.probabilities.switch_stddev = r.switch_mean / 8.0;
        infra_options.probabilities.other_mean = r.other_mean;
        infra_options.probabilities.other_stddev = r.other_mean / 8.0;
        auto infra = fat_tree_infrastructure::build(scale, infra_options);

        regime_result out;
        out.r = &r;
        out.off = run_search(infra, options, false);
        out.on = run_search(infra, options, true);
        out.identical = bit_identical(out.off.response, out.on.response);
        out.speedup = out.on.ms > 0.0 ? out.off.ms / out.on.ms : 0.0;
        all_identical = all_identical && out.identical;

        std::printf("\n-- regime %-10s (switch p=%.4g, other p=%.4g) --\n",
                    r.name, r.switch_mean, r.other_mean);
        std::printf("%-14s %12s %14s %14s\n", "mode", "search(ms)", "R",
                    "plans");
        std::printf("%-14s %12.1f %14.6f %14llu\n", "incremental=0",
                    out.off.ms, out.off.response.stats.reliability,
                    static_cast<unsigned long long>(
                        out.off.response.search.plans_evaluated));
        std::printf("%-14s %12.1f %14.6f %14llu\n", "incremental=1",
                    out.on.ms, out.on.response.stats.reliability,
                    static_cast<unsigned long long>(
                        out.on.response.search.plans_evaluated));
        std::printf("speedup: %.2fx   bit-identical: %s\n", out.speedup,
                    out.identical ? "yes" : "NO - BUG");
        print_cache_line("incremental=0", out.off.cache);
        print_cache_line("incremental=1", out.on.cache);
        results.push_back(out);
    }
    ::unsetenv("RECLOUD_VERDICT_CACHE");
    ::unsetenv("RECLOUD_INCREMENTAL");

    const char* path = "BENCH_sa_incremental.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out, "{\n  \"context\": {\n");
    std::fprintf(out, "    \"date\": \"%s\",\n", iso_now().c_str());
    std::fprintf(out, "    \"num_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "    \"scale\": \"%s\",\n", to_string(scale));
    std::fprintf(out, "    \"assessment_rounds\": %zu,\n",
                 options.assessment_rounds);
    std::fprintf(out, "    \"max_iterations\": %zu,\n", options.max_iterations);
    std::fprintf(out, "    \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "    \"full_scale\": %s\n",
                 full_scale() ? "true" : "false");
    std::fprintf(out, "  },\n  \"regimes\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const regime_result& rr = results[i];
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"switch_p\": %g, "
                     "\"other_p\": %g, \"speedup\": %.3f, "
                     "\"bit_identical\": %s, \"runs\": [\n",
                     rr.r->name, rr.r->switch_mean, rr.r->other_mean,
                     rr.speedup, rr.identical ? "true" : "false");
        const run_result* runs[] = {&rr.off, &rr.on};
        for (int j = 0; j < 2; ++j) {
            const run_result& r = *runs[j];
            std::fprintf(
                out,
                "      {\"incremental\": %s, \"search_ms\": %.2f, "
                "\"reliability\": %.9f, \"plans_evaluated\": %llu, "
                "\"cache\": {\"rounds\": %llu, \"hit_rate\": %.4f, "
                "\"warm_rebinds\": %llu, \"cold_rebinds\": %llu, "
                "\"retained_entries\": %llu, \"cross_plan_hits\": %llu}}%s\n",
                j == 1 ? "true" : "false", r.ms, r.response.stats.reliability,
                static_cast<unsigned long long>(
                    r.response.search.plans_evaluated),
                static_cast<unsigned long long>(r.cache.rounds),
                r.cache.hit_rate(),
                static_cast<unsigned long long>(r.cache.warm_rebinds),
                static_cast<unsigned long long>(r.cache.cold_rebinds),
                static_cast<unsigned long long>(r.cache.retained_entries),
                static_cast<unsigned long long>(r.cache.cross_plan_hits),
                j == 0 ? "," : "");
        }
        std::fprintf(out, "    ]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"bit_identical\": %s\n}\n",
                 all_identical ? "true" : "false");
    std::fclose(out);
    std::printf("\nwrote %s\n", path);

    if (!all_identical) {
        std::fprintf(stderr,
                     "FAIL: incremental run diverged from the reference "
                     "trajectory\n");
        return 1;
    }
    return 0;
}
