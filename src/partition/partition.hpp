// Partition: disjoint modules (groups of logic gates) covering the CUT.
//
// Paper section 2: a partition Pi of the gate set G is a collection
// {M_1, ..., M_K} of disjoint modules covering G; every gate belongs to
// exactly one module (whole transistor groups stay together, avoiding the
// latch-up hazards of split groups). Primary inputs are never partitioned.
//
// The representation supports the evolution strategy's inner loop:
//   * O(1) move of a gate between modules (swap-pop with position index),
//   * O(|M_last|) deletion of an emptied module (swap with the last slot),
//   * stable module indices otherwise,
//   * an optional undo journal: a batch of moves/deletions rolls back
//     exactly (gate order inside every module included), so a hypothetical
//     move list can be applied in place and undone instead of copying.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace iddq::part {

/// Module index sentinel for unassigned gates (primary inputs stay here).
inline constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);

/// A gate relocation: `gate` from its current module to `target`.
/// `gate == netlist::kNoGate` means "no move".
struct Move {
  netlist::GateId gate = netlist::kNoGate;
  std::uint32_t target = 0;

  [[nodiscard]] bool valid() const noexcept {
    return gate != netlist::kNoGate;
  }
};

class Partition {
 public:
  /// An empty partition over `gate_count` gates with `module_count` modules.
  Partition(std::size_t gate_count, std::size_t module_count);

  /// Builds a partition from explicit groups; every logic gate of `nl` must
  /// appear in exactly one group (throws iddq::Error otherwise).
  [[nodiscard]] static Partition from_groups(
      const netlist::Netlist& nl,
      std::span<const std::vector<netlist::GateId>> groups);

  [[nodiscard]] std::size_t gate_count() const noexcept {
    return module_of_.size();
  }
  [[nodiscard]] std::size_t module_count() const noexcept {
    return modules_.size();
  }

  [[nodiscard]] std::uint32_t module_of(netlist::GateId g) const {
    return module_of_[g];
  }

  [[nodiscard]] std::span<const netlist::GateId> module(
      std::uint32_t m) const {
    return modules_[m];
  }

  [[nodiscard]] std::size_t module_size(std::uint32_t m) const {
    return modules_[m].size();
  }

  /// Number of gates assigned to any module.
  [[nodiscard]] std::size_t assigned_count() const noexcept {
    return assigned_;
  }

  /// Assigns a currently-unassigned gate to module `m`.
  void assign(netlist::GateId g, std::uint32_t m);

  /// Moves an assigned gate to another module. No-op when already there.
  void move(netlist::GateId g, std::uint32_t target);

  /// Removes module `m`, which must be empty. The last module is swapped
  /// into slot m. Returns the index the swapped module previously had
  /// (== new module_count() when m was the last slot, i.e. nothing moved).
  std::uint32_t erase_empty_module(std::uint32_t m);

  /// True when every logic gate of `nl` is assigned and no module is empty.
  [[nodiscard]] bool covers(const netlist::Netlist& nl) const;

  /// Starts recording move() and erase_empty_module() so rollback() can
  /// undo them. Journals do not nest.
  void begin_journal();

  /// Undoes every change since begin_journal(), newest first, by exact
  /// inverse operations (integer bookkeeping only), and stops recording:
  /// afterwards the partition == its state at begin_journal().
  void rollback();

  /// Equal module contents, in order, and equal assignments (the journal
  /// is bookkeeping, not state).
  friend bool operator==(const Partition& a, const Partition& b) {
    return a.module_of_ == b.module_of_ &&
           a.pos_in_module_ == b.pos_in_module_ &&
           a.modules_ == b.modules_ && a.assigned_ == b.assigned_;
  }

 private:
  /// One undoable change. A move records its gate plus the source module
  /// and position it left; an erase records gate == kNoGate and the
  /// erased slot.
  struct JournalEntry {
    netlist::GateId gate;
    std::uint32_t module;
    std::uint32_t pos;
  };

  std::vector<std::uint32_t> module_of_;
  std::vector<std::uint32_t> pos_in_module_;
  std::vector<std::vector<netlist::GateId>> modules_;
  std::size_t assigned_ = 0;
  bool journaling_ = false;
  std::vector<JournalEntry> journal_;
};

}  // namespace iddq::part
