// Coverage vs pattern budget: what a partition buys at different test
// lengths.
//
//   $ ./coverage_sweep
//
// The Table-1 flow scores partitions by proxies (sensor area, delay and
// test overheads). This example grades them by the thing the proxies stand
// in for: measured IDDQ fault coverage (docs/coverage.md). For one circuit
// it partitions with the evolution and standard methods, then sweeps the
// random-pattern budget and reports, per (method, budget) point, the
// fault coverage and the set-cover minimized suite size — the classic
// coverage-vs-test-time trade-off, plus the monolithic single-sensor
// baseline that motivates partitioning in the first place.
#include <iostream>
#include <string>
#include <vector>

#include "core/flow_engine.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/random_dag.hpp"
#include "partition/partition.hpp"
#include "report/table.hpp"
#include "sim/coverage.hpp"

int main() {
  using namespace iddq;
  // Large enough that the whole-chip leakage swamps the threshold (the
  // discriminability problem of paper section 1): the monolithic row then
  // shows 0% while the partitioned rows climb with the pattern budget.
  const auto nl = netlist::gen::make_random_dag(
      netlist::gen::DagProfile::basic("asic9k", 9000, 30, 2024));
  const auto library = lib::default_library();

  core::FlowEngineConfig flow_config;
  flow_config.optimizers.es.max_generations = 60;
  flow_config.optimizers.es.stall_generations = 20;
  core::FlowEngine flow(nl, library, flow_config);
  const auto [evolution, standard] = flow.run_paper_pair(7);

  // Monolithic baseline: every gate in one module, one sensor.
  std::vector<std::vector<netlist::GateId>> one(1);
  for (const auto g : nl.logic_gates()) one[0].push_back(g);
  const auto monolithic = part::Partition::from_groups(nl, one);

  struct Point {
    std::string label;
    const part::Partition* partition;
  };
  const std::vector<Point> points{
      {"monolithic", &monolithic},
      {"evolution", &evolution.partition},
      {"standard", &standard.partition},
  };

  std::cout << "circuit: " << nl.name() << ", "
            << nl.logic_gate_count() << " gates\n"
            << "fault model: mixed (scaled bridges + gate-oxide shorts), "
               "seed 1\n\n";

  report::TextTable table({"partition", "modules", "patterns", "coverage",
                           "minimized suite"});
  for (const std::size_t budget : {32u, 128u, 512u}) {
    // One engine per budget: same fault list every time (same seed), so
    // rows differ only in the pattern suite length.
    sim::CoverageConfig cc;
    cc.fault_model = sim::FaultModelSpec::parse("mixed");
    cc.patterns = budget;
    cc.minimize = true;
    cc.sim.iddq_th_ua = flow_config.sensor.iddq_th_ua;
    const sim::CoverageEngine engine(nl, library, cc);

    for (const auto& point : points) {
      const auto report = engine.score(*point.partition);
      table.add_row(
          {point.label, std::to_string(point.partition->module_count()),
           std::to_string(report.patterns_supplied),
           report::format_pct(report.coverage_pct(), /*already_pct=*/true),
           std::to_string(report.patterns_minimized) + " patterns"});
    }
  }
  table.print(std::cout);

  std::cout <<
      "\nnotes:\n"
      "  * the monolithic sensor never discriminates: its fault-free\n"
      "    leakage already exceeds IDDQ_th, so every defect hides (the\n"
      "    paper's case for partitioning).\n"
      "  * the minimized suite detects exactly the same faults as the\n"
      "    full suite (greedy set cover) -- test time shrinks, coverage\n"
      "    does not.\n"
      "  * diminishing returns with budget: random patterns activate the\n"
      "    easy defects quickly; the tail needs directed patterns.\n";
  return 0;
}
