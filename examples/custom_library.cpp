// Bringing your own technology: custom cell library, text round-trip.
//
//   $ ./custom_library
//
// The estimators read nothing but the cell library's electrical
// characterization (section 3: "a target cell library fully characterized at
// electrical level is assumed available"). This example builds a faster,
// lower-leakage technology programmatically, saves and reloads it through
// the text format, and compares the synthesis results against the default
// 1995 library on the same netlist.
#include <iostream>
#include <sstream>

#include "core/flow_engine.hpp"
#include "library/cell_library.hpp"
#include "library/lib_io.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "report/table.hpp"

namespace {

iddq::lib::CellLibrary make_fast_library() {
  using namespace iddq;
  // Derive a hypothetical half-micron shrink from the default library:
  // 40% faster, 60% lower leakage, 45% smaller, proportionally lower
  // capacitances.
  const auto base = lib::default_library();
  lib::CellLibrary fast("cmos5v-shrink", base.vdd_mv());
  for (const auto& type : base.cell_types()) {
    lib::CellParams p = base.params(type);
    p.delay_ps *= 0.6;
    p.ileak_na *= 0.4;
    p.area *= 0.55;
    p.cin_ff *= 0.7;
    p.cout_ff *= 0.7;
    p.cvr_ff *= 0.7;
    p.rg_kohm = p.delay_ps / (0.6931471805599453 * p.cout_ff);
    p.ipeak_ua = 0.75 * base.vdd_mv() / p.rg_kohm;
    fast.add(type, p);
  }
  return fast;
}

}  // namespace

int main() {
  using namespace iddq;

  // Build, serialize, reload: the round-trip is what a user would do with
  // a library file on disk.
  const auto fast = make_fast_library();
  const std::string text = lib::to_library_string(fast);
  const auto reloaded = lib::read_library_text(text, "reloaded");
  std::cout << "custom library '" << reloaded.name() << "': "
            << reloaded.size() << " cells, vdd " << reloaded.vdd_mv()
            << " mV (round-tripped through the text format, "
            << text.size() << " bytes)\n\n";

  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto default_lib = lib::default_library();
  report::TextTable table({"library", "K", "sensor area", "delay ovh",
                           "test ovh", "D_nominal [ns]"});
  for (const auto* library : {&default_lib, &reloaded}) {
    core::FlowEngineConfig config;
    config.optimizers.es.max_generations = 100;
    config.optimizers.es.stall_generations = 25;
    core::FlowEngine engine(nl, *library, config);
    const auto result = engine.run_method("evolution", {.seed = 42});
    table.add_row(
        {library->name(), std::to_string(result.module_count),
         report::format_eng(result.sensor_area),
         report::format_pct(result.delay_overhead),
         report::format_pct(result.test_overhead),
         report::format_fixed(engine.context().d_nominal_ps / 1000.0, 2)});
  }
  table.print(std::cout);
  std::cout <<
      "\nreading: the lower-leakage shrink needs fewer modules for the same\n"
      "d >= 10 (leakage cap binds later) and its smaller peak currents allow\n"
      "weaker bypass switches -> less sensor area.\n";
  return 0;
}
