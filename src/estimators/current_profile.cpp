#include "estimators/current_profile.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iddq::est {

void ModuleCurrentProfile::sync_tree() const {
  if (!tree_stale_) return;
  for (std::size_t i = grid_; i-- > 1;) {
    current_ua_[i] = std::max(current_ua_[2 * i], current_ua_[2 * i + 1]);
    switching_[i] = std::max(switching_[2 * i], switching_[2 * i + 1]);
  }
  tree_stale_ = false;
}

void ModuleCurrentProfile::add_gate(const DynamicBitset& times,
                                    double ipeak_ua) {
  IDDQ_ASSERT(times.size() == grid_);
  times.for_each([&](std::size_t t) {
    current_ua_[grid_ + t] += ipeak_ua;
    switching_[grid_ + t] += 1;
  });
  tree_stale_ = true;
}

void ModuleCurrentProfile::remove_gate(const DynamicBitset& times,
                                       double ipeak_ua) {
  IDDQ_ASSERT(times.size() == grid_);
  times.for_each([&](std::size_t t) {
    const std::size_t leaf = grid_ + t;
    current_ua_[leaf] -= ipeak_ua;
    IDDQ_ASSERT(switching_[leaf] > 0);
    switching_[leaf] -= 1;
    if (switching_[leaf] == 0) current_ua_[leaf] = 0.0;  // cancel fp residue
  });
  tree_stale_ = true;
}

std::uint32_t ModuleCurrentProfile::peak_overlap(
    const DynamicBitset& times) const {
  IDDQ_ASSERT(times.size() == grid_);
  std::uint32_t best = 0;
  times.for_each(
      [&](std::size_t t) { best = std::max(best, switching_[grid_ + t]); });
  return best == 0 ? 1 : best;
}

double ModuleCurrentProfile::scan_max_current_ua() const {
  double best = 0.0;
  for (const double v : current_ua()) best = std::max(best, v);
  return best;
}

std::uint32_t ModuleCurrentProfile::scan_max_switching() const {
  std::uint32_t best = 0;
  for (const std::uint32_t v : switching()) best = std::max(best, v);
  return best;
}

void ModuleCurrentProfile::self_check() const {
  require(current_ua_.size() == 2 * grid_ && switching_.size() == 2 * grid_,
          "current profile self-check: tree storage size mismatch");
  sync_tree();
  for (std::size_t i = 1; i < grid_; ++i) {
    require(current_ua_[i] ==
                std::max(current_ua_[2 * i], current_ua_[2 * i + 1]),
            "current profile self-check: stale current tree node");
    require(switching_[i] ==
                std::max(switching_[2 * i], switching_[2 * i + 1]),
            "current profile self-check: stale switching tree node");
  }
  require(max_current_ua() == scan_max_current_ua(),
          "current profile self-check: tree max != scanned max current");
  require(max_switching() == scan_max_switching(),
          "current profile self-check: tree max != scanned max switching");
}

ModuleCurrentProfile profile_of(const TransitionTimes& tt,
                                std::span<const lib::CellParams> cells,
                                std::span<const netlist::GateId> gates) {
  ModuleCurrentProfile p(tt.grid_size());
  for (const netlist::GateId id : gates)
    p.add_gate(tt.at(id), cells[id].ipeak_ua);
  return p;
}

ModuleCurrentProfile circuit_profile(const netlist::Netlist& nl,
                                     const TransitionTimes& tt,
                                     std::span<const lib::CellParams> cells) {
  return profile_of(tt, cells, nl.logic_gates());
}

}  // namespace iddq::est
