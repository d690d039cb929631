// Shared configuration for the reproduction benches.
//
// Every bench prints the paper-reported values next to the measured ones;
// EXPERIMENTS.md is generated from exactly these binaries' output.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/flow_engine.hpp"

namespace iddq::bench {

/// The seed of the Table 1 reproduction's FlowEngine::run_paper_pair.
inline constexpr std::uint64_t kPaperSeed = 42;

/// The FlowEngine configuration used by the Table 1 reproduction. The
/// evolution budget can be scaled down for smoke runs via
/// IDDQSYN_BENCH_FAST=1.
inline core::FlowEngineConfig paper_flow_config() {
  core::FlowEngineConfig cfg;
  core::EsParams& es = cfg.optimizers.es;
  es.mu = 8;
  es.lambda = 7;
  es.chi = 2;
  es.kappa = 8;
  es.m0 = 4;
  es.epsilon = 1.0;
  es.max_generations = 350;
  es.stall_generations = 60;
  if (const char* fast = std::getenv("IDDQSYN_BENCH_FAST");
      fast != nullptr && std::string(fast) == "1") {
    es.max_generations = 60;
    es.stall_generations = 20;
  }
  return cfg;
}

}  // namespace iddq::bench
