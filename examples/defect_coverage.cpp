// Why partition at all? Defect-detection with and without BIC partitioning.
//
//   $ ./defect_coverage
//
// Injects random bridging defects and gate-oxide shorts into a benchmark
// circuit and simulates the IDDQ test twice:
//   * monolithic: one current measurement for the whole CUT (off-chip style)
//   * partitioned: one BIC sensor per module from the synthesis flow
// With a realistic threshold the whole-chip fault-free leakage already
// swamps small defect currents (the discriminability problem of section 1);
// per-module sensors restore the margin and the coverage.
#include <iostream>

#include "core/flow_engine.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/random_dag.hpp"
#include "report/table.hpp"
#include "sim/iddq_sim.hpp"

int main() {
  using namespace iddq;
  // An ASIC-scale block: 9000 gates leak ~2 uA in total — already above the
  // 1.5 uA detection threshold, which is precisely the regime the paper's
  // introduction describes ("non defective IDDQ currents of large circuits
  // can be larger than 1 uA").
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("asic9k", 9000, 30, 2024));
  const auto library = lib::default_library();

  // Partition via the paper's flow (reduced budget: this is a demo).
  core::FlowEngineConfig config;
  config.optimizers.es.max_generations = 60;
  config.optimizers.es.stall_generations = 20;
  core::FlowEngine engine(nl, library, config);
  const auto evolution = engine.run_method("evolution", {.seed = 7});
  const auto& partitioned = evolution.partition;

  // Monolithic "partition": every gate in one module.
  std::vector<std::vector<netlist::GateId>> one(1);
  for (const auto g : nl.logic_gates()) one[0].push_back(g);
  const auto monolithic = part::Partition::from_groups(nl, one);

  // Fault list and patterns.
  Rng rng(99);
  const auto faults = sim::random_faults(nl, 300, 150, rng);
  Rng pat_rng(5);
  const auto patterns = sim::random_patterns(nl, 512, pat_rng);

  // Threshold: the sensor spec's IDDQ_th. The monolithic circuit's
  // fault-free leakage sits above it, so a single measurement cannot
  // discriminate; each module of the partition leaks <= IDDQ_th / d.
  sim::IddqSimConfig sim_cfg;
  sim_cfg.iddq_th_ua = config.sensor.iddq_th_ua;
  const sim::IddqSimulator simulator(nl, library, sim_cfg);

  const double total_leak =
      simulator.fault_free_module_current(monolithic)[0];
  std::cout << "circuit: " << nl.name() << ", fault-free IDDQ = "
            << total_leak << " uA, threshold = " << sim_cfg.iddq_th_ua
            << " uA\n";
  std::cout << "=> monolithic measurement "
            << (total_leak > sim_cfg.iddq_th_ua
                    ? "CANNOT discriminate (leakage above threshold)"
                    : "can still discriminate")
            << "\n\n";

  const auto cov_mono = simulator.coverage(monolithic, faults, patterns);
  const auto cov_part = simulator.coverage(partitioned, faults, patterns);

  report::TextTable table({"configuration", "sensors", "faults", "detected",
                           "coverage"});
  table.add_row({"monolithic (off-chip style)", "1",
                 std::to_string(cov_mono.total),
                 std::to_string(cov_mono.detected),
                 report::format_pct(cov_mono.coverage())});
  table.add_row({"BIC-partitioned (this flow)",
                 std::to_string(partitioned.module_count()),
                 std::to_string(cov_part.total),
                 std::to_string(cov_part.detected),
                 report::format_pct(cov_part.coverage())});
  table.print(std::cout);

  std::cout << "\nnote: the monolithic row counts a defect as detected only\n"
               "if its current raises the *total* IDDQ above threshold --\n"
               "with the fault-free floor already above IDDQ_th, every\n"
               "vector fails and no defect is distinguishable; the paper's\n"
               "partitioning restores per-module discriminability d >= 10.\n";
  return 0;
}
