// Ablation: sensitivity to the cost-weight vector.
//
// The paper fixes C(Pi) = 9*c1 + 1e5*c2 + c3 + c4 + 10*c5 "to obtain
// IDDQ-testable circuits with minimal area-overhead which still satisfy
// performance requirements". This bench re-runs the flow with each weight
// scaled up and down to show which objective actually steers the optimum
// in each regime (DESIGN.md section 5, decision 8).
#include <iostream>

#include "core/flow_engine.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "report/table.hpp"

int main() {
  using namespace iddq;
  std::cout << "=== Ablation: cost-weight sensitivity (c1908) ===\n\n";

  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();

  struct Variant {
    const char* label;
    part::CostWeights weights;
  };
  const Variant variants[] = {
      {"paper (9,1e5,1,1,10)", part::CostWeights{}},
      {"area x10 (a1=90)", {90.0, 1.0e5, 1.0, 1.0, 10.0}},
      {"delay off (a2=0)", {9.0, 0.0, 1.0, 1.0, 10.0}},
      {"delay x10 (a2=1e6)", {9.0, 1.0e6, 1.0, 1.0, 10.0}},
      {"wiring x100 (a3=100)", {9.0, 1.0e5, 100.0, 1.0, 10.0}},
      {"test-time x100 (a4=100)", {9.0, 1.0e5, 1.0, 100.0, 10.0}},
      {"sensors cheap (a5=0)", {9.0, 1.0e5, 1.0, 1.0, 0.0}},
  };

  report::TextTable table({"weights", "K", "area", "c2", "c3", "c4",
                           "std area ovh"});
  for (const auto& v : variants) {
    core::FlowEngineConfig cfg;
    cfg.weights = v.weights;
    cfg.optimizers.es.max_generations = 150;
    cfg.optimizers.es.stall_generations = 40;
    core::FlowEngine engine(nl, library, cfg);
    const auto [evolution, standard] = engine.run_paper_pair(42);
    table.add_row(
        {v.label, std::to_string(evolution.module_count),
         report::format_eng(evolution.sensor_area),
         report::format_eng(evolution.costs.c2),
         report::format_fixed(evolution.costs.c3, 1),
         report::format_eng(evolution.costs.c4),
         report::format_pct(
             core::standard_area_overhead_pct(evolution, standard), true)});
  }
  table.print(std::cout);
  std::cout <<
      "\nreading: raising a1 tightens sensor area; removing a2 lets the ES\n"
      "trade delay away; a3 favours compact (well-connected) modules, which\n"
      "is exactly what the standard baseline optimizes -- so the baseline's\n"
      "area overhead shrinks in that regime.\n";
  return 0;
}
