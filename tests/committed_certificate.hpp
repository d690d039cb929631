// The slack certificate an evaluator's committed state calls for, taken
// by a fresh timing instance over the committed per-gate factors. The
// evaluator-level differentials compare every certificate an evaluator
// takes with it, so a certificate walked from the wrong arrivals (a
// what-if child's, say) fails them even when the probes it answers
// happen to come out right.
//
// A fresh PartitionEvaluator over the same partition is not the
// reference: its running current and capacitance sums are summed in
// another order than the committed ones, so its factors can differ in the
// last bits. The factors here are derived from the committed sums
// themselves, by the delay model the evaluator solves: each module's
// sensor resistance and rail capacitance from module_report(), its peak
// switching count (an integer, exact in any order) from a fresh profile.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "electrical/delay_model.hpp"
#include "estimators/current_profile.hpp"
#include "estimators/incremental_timing.hpp"
#include "partition/evaluator.hpp"

namespace iddq::testutil {

/// The certificate a fresh est::IncrementalTiming takes over `eval`'s
/// committed factors.
inline est::IncrementalTiming::Certificate committed_certificate(
    part::PartitionEvaluator& eval) {
  const part::EvalContext& ctx = eval.context();
  const part::Partition& p = eval.partition();
  std::vector<double> factor(ctx.nl.gate_count(), 1.0);
  for (std::uint32_t m = 0; m < p.module_count(); ++m) {
    const part::ModuleReport report = eval.module_report(m);
    est::ModuleCurrentProfile profile(ctx.transition_times.grid_size());
    for (const netlist::GateId g : p.module(m))
      profile.add_gate(ctx.transition_times.at(g), ctx.cells[g].ipeak_ua);
    elec::DelayModelInput in;
    in.rs_kohm = report.rs_kohm;
    in.cs_ff = report.cs_ff;
    in.n = std::max<std::uint32_t>(profile.max_switching(), 1);
    for (const netlist::GateId g : p.module(m)) {
      in.cg_ff = ctx.type_cg_ff[ctx.type_of[g]];
      in.rg_kohm = ctx.type_rg_kohm[ctx.type_of[g]];
      factor[g] = elec::DelayDegradationModel::delta(in);
    }
  }
  est::IncrementalTiming fresh(ctx.timing_graph);
  fresh.certify([&factor](netlist::GateId g) { return factor[g]; });
  return fresh.certificate();
}

/// Runs `op` on `eval`; when it took a new certificate, that certificate
/// must equal committed_certificate(eval).
template <class Op>
void expect_walks_committed_state(part::PartitionEvaluator& eval, Op&& op) {
  const std::size_t walks = eval.timing().recertifications();
  op();
  if (eval.timing().recertifications() == walks) return;
  ASSERT_TRUE(eval.timing().certified());
  EXPECT_TRUE(eval.timing().certificate() == committed_certificate(eval))
      << "a certificate was not taken from the committed state";
}

}  // namespace iddq::testutil
