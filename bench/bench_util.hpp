// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one table or figure from the
// paper's evaluation (§4). By default the benches run at reduced budgets so
// the whole suite finishes in a few minutes; set RECLOUD_FULL=1 in the
// environment for paper-scale budgets (§4.1: Tmax = 30 s, 10^4 rounds,
// search sweeps up to 300 s).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assess/backend.hpp"
#include "core/scenario.hpp"
#include "routing/fat_tree_routing.hpp"
#include "topology/fat_tree.hpp"
#include "util/stopwatch.hpp"

namespace recloud::bench {

/// True when RECLOUD_FULL=1: run paper-scale budgets.
inline bool full_scale() {
    const char* env = std::getenv("RECLOUD_FULL");
    return env != nullptr && std::string{env} == "1";
}

inline const std::vector<data_center_scale>& all_scales() {
    static const std::vector<data_center_scale> scales{
        data_center_scale::tiny, data_center_scale::small,
        data_center_scale::medium, data_center_scale::large};
    return scales;
}

inline void print_header(const char* title, const char* paper_ref) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s%s\n", paper_ref,
                full_scale() ? "  [RECLOUD_FULL=1: paper-scale budgets]"
                             : "  [reduced budgets; RECLOUD_FULL=1 for paper scale]");
    std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
    std::printf("================================================================\n");
}

/// The serial assessment backend — the batch scheme with one inline worker
/// — judging on `infra`'s closed-form fat-tree oracle. `infra` and `sampler`
/// must outlive it.
inline parallel_backend make_serial_backend(
    const fat_tree_infrastructure& infra, failure_sampler& sampler) {
    return parallel_backend{
        infra.registry().size(), &infra.forest(),
        [&infra] {
            return std::make_unique<fat_tree_routing>(infra.tree(), nullptr,
                                                      &infra.forest());
        },
        sampler, {.threads = 1}};
}

/// Times a callable once and returns milliseconds.
template <typename F>
double time_ms(F&& fn) {
    stopwatch watch;
    fn();
    return watch.elapsed_ms();
}

}  // namespace recloud::bench
