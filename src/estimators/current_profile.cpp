#include "estimators/current_profile.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iddq::est {

namespace {

/// Max over a row and 0, in four independent accumulators: a single one
/// would serialize the scan on its compare chain. Max is exact, so the
/// lane order cannot change the result.
template <class T>
T lane_max(const std::vector<T>& row) {
  const T* v = row.data();
  const std::size_t n = row.size();
  T m0{};
  T m1{};
  T m2{};
  T m3{};
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    m0 = std::max(m0, v[t]);
    m1 = std::max(m1, v[t + 1]);
    m2 = std::max(m2, v[t + 2]);
    m3 = std::max(m3, v[t + 3]);
  }
  for (; t < n; ++t) m0 = std::max(m0, v[t]);
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

}  // namespace

void ModuleCurrentProfile::add_gate(const DynamicBitset& times,
                                    double ipeak_ua) {
  IDDQ_ASSERT(times.size() == current_ua_.size());
  times.for_each([&](std::size_t t) {
    current_ua_[t] += ipeak_ua;
    switching_[t] += 1;
  });
}

void ModuleCurrentProfile::remove_gate(const DynamicBitset& times,
                                       double ipeak_ua) {
  IDDQ_ASSERT(times.size() == current_ua_.size());
  times.for_each([&](std::size_t t) {
    current_ua_[t] -= ipeak_ua;
    IDDQ_ASSERT(switching_[t] > 0);
    switching_[t] -= 1;
    if (switching_[t] == 0) current_ua_[t] = 0.0;  // cancel fp residue
  });
}

double ModuleCurrentProfile::max_current_ua() const {
  return lane_max(current_ua_);
}

std::uint32_t ModuleCurrentProfile::max_switching() const {
  return lane_max(switching_);
}

std::uint32_t ModuleCurrentProfile::peak_overlap(
    const DynamicBitset& times) const {
  IDDQ_ASSERT(times.size() == switching_.size());
  std::uint32_t best = 0;
  times.for_each([&](std::size_t t) { best = std::max(best, switching_[t]); });
  return best == 0 ? 1 : best;
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
