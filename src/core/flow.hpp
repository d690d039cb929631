// End-to-end synthesis flow: the paper-shaped public entry point.
//
//   netlist + cell library
//     -> EvalContext (estimator precomputation)
//     -> size planning (section 4.2)
//     -> evolution strategy (section 4)
//     -> standard-partitioning baseline at the ES module sizes (section 5)
//     -> per-method cost/constraint reports (Table 1 rows)
//
// run_flow is a compatibility wrapper over the registry-driven FlowEngine
// (core/flow_engine.hpp): it runs the registry's "evolution" and "standard"
// methods with the paper's section-5 coupling and keeps the historical
// FlowResult accessors. New code that wants other method sets, explicit
// budgets, or multi-circuit sweeps should use FlowEngine / JobService
// directly.
#pragma once

#include "core/evolution.hpp"
#include "core/flow_engine.hpp"
#include "core/size_planner.hpp"
#include "library/cell_library.hpp"
#include "partition/evaluator.hpp"

namespace iddq::core {

struct FlowConfig {
  elec::SensorSpec sensor;
  part::CostWeights weights;
  EsParams es;
  std::uint32_t rho = 4;  // separation saturation distance
  /// Optional greedy polish of the ES result (off for paper fidelity).
  bool refine_result = false;
};

struct FlowResult {
  SizePlan plan;
  MethodResult evolution;
  MethodResult standard;
  EsResult es_detail;

  /// True when the headline comparison below is meaningful: the evolution
  /// result carries sensor area to compare against. False for degenerate
  /// plans (e.g. a single zero-area module), where the overhead is
  /// reported as 0 instead of inf/NaN.
  [[nodiscard]] bool overhead_comparable() const {
    return evolution.sensor_area > 0.0;
  }

  /// The paper's headline metric: extra BIC-sensor area the standard
  /// baseline needs relative to the evolution result, in percent.
  /// Returns 0 when !overhead_comparable().
  [[nodiscard]] double standard_area_overhead_pct() const {
    if (!overhead_comparable()) return 0.0;
    return (standard.sensor_area / evolution.sensor_area - 1.0) * 100.0;
  }
};

/// Runs the complete flow. `ctx` outlives the call only; results are
/// self-contained.
[[nodiscard]] FlowResult run_flow(const netlist::Netlist& nl,
                                  const lib::CellLibrary& library,
                                  const FlowConfig& config);

}  // namespace iddq::core
