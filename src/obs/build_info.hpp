// Build provenance (observability satellite): which exact binary produced a
// result. Every JSON/trace/timeline export and the CLI banner embed this so
// benchmark results and Perfetto traces stay attributable after the fact.
//
// The values are baked in at compile time: the git hash and sanitizer preset
// come from CMake (per-file compile definitions on build_info.cpp — editing
// them never triggers a full rebuild), the compiler string from __VERSION__.
#pragma once

#include <string>

namespace recloud {

struct build_info_t {
    const char* git_hash;    ///< short commit hash, "unknown" outside a checkout
    const char* compiler;    ///< e.g. "g++ 13.2.0"
    const char* build_type;  ///< CMAKE_BUILD_TYPE at configure time
    const char* sanitizer;   ///< RECLOUD_SANITIZE preset, "" when none
};

/// The constants describing this binary.
[[nodiscard]] const build_info_t& build_info() noexcept;

/// {"git":"..","compiler":"..","build_type":"..","sanitizer":".."} — shared
/// by every exporter so the provenance object is identical everywhere.
[[nodiscard]] std::string build_info_json();

/// One-line human form for the CLI banner:
/// "recloud <git> (<compiler>, <build_type>[, <sanitizer>])".
[[nodiscard]] std::string build_info_banner();

}  // namespace recloud
