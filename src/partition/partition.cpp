#include "partition/partition.hpp"

#include "support/error.hpp"

namespace iddq::part {

Partition::Partition(std::size_t gate_count, std::size_t module_count)
    : module_of_(gate_count, kUnassigned),
      pos_in_module_(gate_count, 0),
      modules_(module_count) {
  require(module_count >= 1, "partition: need at least one module");
}

Partition Partition::from_groups(
    const netlist::Netlist& nl,
    std::span<const std::vector<netlist::GateId>> groups) {
  Partition p(nl.gate_count(), groups.size());
  for (std::uint32_t m = 0; m < groups.size(); ++m) {
    for (const netlist::GateId g : groups[m]) {
      require(g < nl.gate_count(), "partition: gate id out of range");
      require(netlist::is_logic(nl.gate(g).kind),
              "partition: primary input '" + nl.gate(g).name +
                  "' cannot be assigned to a module");
      require(p.module_of_[g] == kUnassigned,
              "partition: gate '" + nl.gate(g).name +
                  "' appears in two groups");
      p.assign(g, m);
    }
  }
  require(p.assigned_ == nl.logic_gate_count(),
          "partition: groups do not cover all logic gates");
  for (std::uint32_t m = 0; m < p.module_count(); ++m)
    require(!p.modules_[m].empty(), "partition: empty module in groups");
  return p;
}

void Partition::assign(netlist::GateId g, std::uint32_t m) {
  IDDQ_ASSERT(g < module_of_.size());
  IDDQ_ASSERT(m < modules_.size());
  IDDQ_ASSERT(module_of_[g] == kUnassigned);
  module_of_[g] = m;
  pos_in_module_[g] = static_cast<std::uint32_t>(modules_[m].size());
  modules_[m].push_back(g);
  ++assigned_;
}

void Partition::move(netlist::GateId g, std::uint32_t target) {
  IDDQ_ASSERT(g < module_of_.size());
  IDDQ_ASSERT(target < modules_.size());
  const std::uint32_t src = module_of_[g];
  IDDQ_ASSERT(src != kUnassigned);
  if (src == target) return;
  // Swap-pop from the source module.
  auto& src_gates = modules_[src];
  const std::uint32_t pos = pos_in_module_[g];
  IDDQ_ASSERT(src_gates[pos] == g);
  if (journaling_) journal_.push_back(JournalEntry{g, src, pos});
  const netlist::GateId last = src_gates.back();
  src_gates[pos] = last;
  pos_in_module_[last] = pos;
  src_gates.pop_back();
  // Append to the target.
  module_of_[g] = target;
  pos_in_module_[g] = static_cast<std::uint32_t>(modules_[target].size());
  modules_[target].push_back(g);
}

std::uint32_t Partition::erase_empty_module(std::uint32_t m) {
  IDDQ_ASSERT(m < modules_.size());
  require(modules_[m].empty(), "erase_empty_module: module is not empty");
  const auto last = static_cast<std::uint32_t>(modules_.size() - 1);
  if (journaling_) journal_.push_back(JournalEntry{netlist::kNoGate, m, 0});
  if (m != last) {
    modules_[m] = std::move(modules_[last]);
    for (const netlist::GateId g : modules_[m]) module_of_[g] = m;
  }
  modules_.pop_back();
  return last;
}

void Partition::begin_journal() {
  IDDQ_ASSERT(!journaling_);
  journal_.clear();
  journaling_ = true;
}

void Partition::rollback() {
  IDDQ_ASSERT(journaling_);
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    if (it->gate == netlist::kNoGate) {
      // Undo erase_empty_module(m): the module that was swapped into slot
      // m returns to a re-created last slot; slot m is empty again.
      const std::uint32_t m = it->module;
      const auto last = static_cast<std::uint32_t>(modules_.size());
      if (m == last) {
        modules_.emplace_back();
      } else {
        modules_.push_back(std::move(modules_[m]));
        modules_[m].clear();
        for (const netlist::GateId g : modules_[last]) module_of_[g] = last;
      }
      continue;
    }
    // Undo move(g, target): g is the target's last gate again, and the
    // gate that filled its old position returns to the source's end.
    const netlist::GateId g = it->gate;
    const std::uint32_t src = it->module;
    const std::uint32_t pos = it->pos;
    auto& tgt_gates = modules_[module_of_[g]];
    IDDQ_ASSERT(tgt_gates.back() == g);
    tgt_gates.pop_back();
    auto& src_gates = modules_[src];
    if (pos == src_gates.size()) {
      src_gates.push_back(g);
    } else {
      const netlist::GateId displaced = src_gates[pos];
      pos_in_module_[displaced] = static_cast<std::uint32_t>(src_gates.size());
      src_gates.push_back(displaced);
      src_gates[pos] = g;
    }
    module_of_[g] = src;
    pos_in_module_[g] = pos;
  }
  journal_.clear();
  journaling_ = false;
}

bool Partition::covers(const netlist::Netlist& nl) const {
  if (assigned_ != nl.logic_gate_count()) return false;
  for (const auto& gates : modules_)
    if (gates.empty()) return false;
  for (const netlist::GateId g : nl.logic_gates())
    if (module_of_[g] == kUnassigned) return false;
  return true;
}

}  // namespace iddq::part
