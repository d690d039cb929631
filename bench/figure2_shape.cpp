// Figure 2 reproduction: the impact of group *shape* on BIC sensor area.
//
// The paper's figure shows a 2-D array CUT with three cell types C1, C2, C3
// and two partitions: partition 1 groups cells along the signal flow (the
// chained cells "will not switch in parallel"), partition 2 groups cells
// across the flow (whole groups switch simultaneously), so partition 2 needs
// larger bypass switches to hold the same virtual-rail perturbation limit.
#include <iostream>

#include "electrical/sensor_model.hpp"
#include "estimators/current_profile.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/array_cut.hpp"
#include "report/table.hpp"

int main() {
  using namespace iddq;
  std::cout << "=== Figure 2: partition shape vs BIC sensor area ===\n\n";

  constexpr std::size_t kRows = 9;
  constexpr std::size_t kCols = 12;
  constexpr std::size_t kBands = 3;
  const auto cut = netlist::gen::make_array_cut(kRows, kCols);
  const auto library = lib::default_library();
  const auto cells = lib::bind_cells(cut.netlist, library);
  const est::TransitionTimes tt(cut.netlist);
  const elec::SensorSpec sensor;

  std::cout << "array CUT: " << kRows << "x" << kCols
            << " cells (types NAND/NOR/AND cycling by column), " << kBands
            << " modules per partition\n\n";

  report::TextTable table({"partition", "module", "gates", "iDD_max [uA]",
                           "Rs [kOhm]", "sensor area"});
  double area[2] = {0.0, 0.0};
  double worst[2] = {0.0, 0.0};
  const char* names[2] = {"1: along flow (rows)", "2: across flow (cols)"};
  const auto partitions = {netlist::gen::row_band_partition(cut, kBands),
                           netlist::gen::column_band_partition(cut, kBands)};
  std::size_t p = 0;
  for (const auto& groups : partitions) {
    for (std::size_t m = 0; m < groups.size(); ++m) {
      const auto profile = est::profile_of(tt, cells, groups[m]);
      const double idd = profile.max_current_ua();
      const double rs = elec::sensor_rs_kohm(sensor, idd);
      const double a = elec::sensor_area(sensor, rs);
      area[p] += a;
      worst[p] = std::max(worst[p], idd);
      table.add_row({names[p], std::to_string(m),
                     std::to_string(groups[m].size()),
                     report::format_fixed(idd, 0),
                     report::format_fixed(rs, 4), report::format_eng(a)});
    }
    ++p;
  }
  table.print(std::cout);

  std::cout << "\ntotal sensor area:  partition 1 = "
            << report::format_eng(area[0]) << ", partition 2 = "
            << report::format_eng(area[1]) << "  (partition 2 needs "
            << report::format_pct(area[1] / area[0] - 1.0)
            << " more)\n";
  std::cout << "worst module iDD:   partition 1 = "
            << report::format_fixed(worst[0], 0) << " uA, partition 2 = "
            << report::format_fixed(worst[1], 0) << " uA  (ratio "
            << report::format_fixed(worst[1] / worst[0], 2) << "x)\n";
  std::cout <<
      "\npaper's qualitative claim: partition 1 (cells C1,C2,C3 chained, not\n"
      "switching in parallel) should be preferred -- reproduced when the\n"
      "area and iDD ratios above exceed 1.\n";
  return 0;
}
