// Flag groups shared by the iddqsyn tools. Every flag that more than one
// tool accepts is declared here once, bound straight to the config field
// it sets, so the tools cannot drift apart in name, default or validation
// (support/flags.hpp has the table itself).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/flow_engine.hpp"
#include "core/job_protocol.hpp"
#include "support/flags.hpp"

namespace iddq::core {

/// The tools' ES generation cap (library callers keep EsParams' default).
inline constexpr std::size_t kToolGenerations = 350;

/// --rail, --disc, --generations, --coverage, --fault-model, --patterns
/// and --minimize-patterns, bound into `config`. Sets the generation cap
/// to kToolGenerations first.
void add_flow_flags(support::FlagTable& flags, FlowEngineConfig& config);

/// Resources of a tool that runs the flow in-process.
struct EngineFlags {
  std::optional<std::string> lib_path;  // nullopt = built-in library
  std::size_t threads = 0;              // 0 = IDDQ_THREADS default
  std::optional<std::string> cache_dir;
  std::size_t cache_resident = 0;  // 0 = unbounded residency
};

/// --lib alone (the cluster front-end's routing fingerprint uses it).
void add_library_flag(support::FlagTable& flags,
                      std::optional<std::string>& lib_path);

/// --lib, --threads, --cache-dir and --cache-resident (iddqsyn and
/// iddqsyn_server).
void add_engine_flags(support::FlagTable& flags, EngineFlags& engine);

/// --pipe, --socket and --listen into `endpoint` (the last one given
/// wins), and --session-queue into `protocol` (default 1024).
void add_serve_flags(support::FlagTable& flags, ServeEndpoint& endpoint,
                     JobProtocolOptions& protocol);

}  // namespace iddq::core
