// Ablation: how pessimistic is the section-3.1 max-current estimator?
//
// The paper concedes the estimate is "approximate and pessimistic, but
// computationally efficient". This bench quantifies the pessimism: per
// module of a planned partition, the estimated iDD_max (all gates switch at
// every possible arrival) versus the peak simultaneous switching measured by
// logic simulation of random vector pairs (each toggling gate switches once,
// at its final-arrival depth).
#include <iostream>

#include "core/start_partition.hpp"
#include "estimators/current_profile.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "report/table.hpp"
#include "sim/activity.hpp"
#include "sim/patterns.hpp"

int main() {
  using namespace iddq;
  std::cout << "=== Ablation: estimated vs simulated module peak current ===\n\n";

  const auto library = lib::default_library();
  report::TextTable table({"circuit", "module", "gates", "estimate [uA]",
                           "simulated [uA]", "pessimism"});

  for (const auto name : {"c1908", "c6288"}) {
    const auto nl = netlist::gen::make_iscas_like(name);
    const auto cells = lib::bind_cells(nl, library);
    // Unit-depth grid on both sides so the comparison is apples-to-apples.
    const est::TransitionTimes tt(nl);
    Rng rng(11);
    const auto partition = core::make_start_partition(nl, 4, rng);

    std::vector<std::uint32_t> mof(nl.gate_count(),
                                   static_cast<std::uint32_t>(-1));
    for (const auto g : nl.logic_gates()) mof[g] = partition.module_of(g);

    Rng pat_rng(23);
    const auto patterns = sim::random_patterns(nl, 512, pat_rng);
    const sim::ActivityAnalyzer analyzer(nl, tt, cells);
    const auto measured = analyzer.measure(patterns, mof, 4);

    for (std::uint32_t m = 0; m < 4; ++m) {
      const auto estimate =
          est::profile_of(tt, cells, partition.module(m)).max_current_ua();
      const double sim_peak = measured.peak_current_ua[m];
      table.add_row(
          {std::string(name), std::to_string(m),
           std::to_string(partition.module_size(m)),
           report::format_fixed(estimate, 0),
           report::format_fixed(sim_peak, 0),
           sim_peak > 0.0
               ? report::format_fixed(estimate / sim_peak, 2) + "x"
               : "inf"});
    }
  }
  table.print(std::cout);
  std::cout <<
      "\nreading: the estimator stays a strict upper bound (pessimism >= 1x)\n"
      "as the paper requires for safe switch sizing; the factor is the price\n"
      "paid for evaluating thousands of partitions without simulation.\n";
  return 0;
}
