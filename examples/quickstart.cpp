// Quickstart: partition a small circuit for IDDQ testability in ~30 lines.
//
//   $ ./quickstart
//
// Loads the ISCAS85 C17 netlist (from .bench text, as you would load your
// own file with netlist::read_bench_file), runs the complete synthesis flow
// of Wunderlich et al. (ED&TC 1995), and prints the resulting BIC-sensor
// partition with its cost breakdown.
#include <iostream>

#include "core/flow_engine.hpp"
#include "library/cell_library.hpp"
#include "netlist/bench_io.hpp"
#include "partition/partition_io.hpp"

int main() {
  using namespace iddq;

  // Any combinational .bench netlist works here.
  const auto netlist = netlist::read_bench_text(R"(
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)",
                                                "c17");

  const auto library = lib::default_library();

  // Paper defaults: d=10, r=200mV, weights 9/1e5/1/1/10.
  core::FlowEngine engine(netlist, library);
  const auto result = engine.run_method("evolution", {.seed = 1});

  std::cout << "circuit: " << netlist.name() << " ("
            << netlist.logic_gate_count() << " gates)\n";
  std::cout << "planned modules: " << engine.plan().module_count
            << " (leakage bound: " << engine.plan().k_min_leakage << ")\n\n";

  std::cout << "best partition found by the evolution strategy:\n";
  part::write_partition(std::cout, netlist, result.partition);

  std::cout << "\ncosts: sensor area = " << result.sensor_area
            << " units, delay overhead = " << result.delay_overhead * 100.0
            << "%, test-time overhead = " << result.test_overhead * 100.0
            << "%\n";
  for (std::size_t m = 0; m < result.modules.size(); ++m) {
    const auto& mod = result.modules[m];
    std::cout << "module " << m << ": " << mod.gates << " gates, iDD_max "
              << mod.idd_max_ua << " uA, Rs " << mod.rs_kohm
              << " kOhm, discriminability " << mod.discriminability << "\n";
  }
  return 0;
}
