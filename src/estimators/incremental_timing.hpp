// Incremental critical-path timing (the evaluator hot path).
//
// The paper's flow recomputes costs "just for the modified modules"
// (section 4.2), but the delay terms are global: D_BIC is the longest path
// with per-gate degraded delays D(g) * delta(g). A full pass is O(V + E)
// per fitness query — after a single-gate move that perturbs only two
// modules' delta factors, almost all of that work recomputes unchanged
// arrivals.
//
// IncrementalTiming keeps the per-gate arrival state persistent and, given
// the set of gates whose delta factor may have changed, repropagates only
// the affected fanout cone:
//
//   * TimingGraph (immutable, shared per circuit): one topological order
//     and the rank of every gate in it. Built once per EvalContext.
//   * arrival[g] = max over fanins of arrival[fanin] + D(g) * factor(g),
//     exactly the recurrence of est::degraded_critical_path_ps. Each
//     arrival is a pure function of the fanin arrivals and the gate's own
//     factor, computed with the same expression on the same operand values
//     — there is no cross-gate reassociation — so the incremental result
//     is bit-identical to the full pass (pinned by
//     tests/estimators/test_incremental_timing.cpp).
//   * factors are supplied by a callable `double(GateId)` so the caller
//     (the evaluator) can serve them straight from its per-module anchor
//     rows — or from overlay rows for a hypothetical move — without
//     materialising a per-gate array.
//   * the worklist is a flagged sweep of the topological order from the
//     lowest seeded rank: every seeded/affected gate is recomputed at most
//     once, after all of its fanins settled, and propagation stops where a
//     recomputed arrival is unchanged (seeding a gate whose factor did not
//     actually change is allowed and prunes immediately). Unaffected gates
//     cost one flag test, so a sparse cone is nearly free and a dense one
//     degenerates to a plain (heap-free) suffix pass.
//   * the critical value is maintained as (worst, witness gate): increases
//     update it in O(1); only a decrease *of the witness itself* forces an
//     O(V) flat rescan of the arrival array (no graph walk).
//
// probe() evaluates a hypothetical factor change — same worklist, journaled
// writes — and rolls the state back before returning, which is what makes
// the evaluator's copy-free probe_move() possible.
//
// probe_full() is the same what-if as a plain pass into scratch storage:
// it needs no valid persistent state and never writes it. The evaluator's
// probe_moves() scores whole evolution-strategy children with it — a
// child's move list dirties whole modules, which is far past the
// kDenseSeedFactor cutover, so a full pass is what the sweep would
// degenerate to anyway.
//
// Copying an IncrementalTiming (a tabu slice copying the round-start
// evaluator, a materialized ES survivor) deliberately DROPS the arrival
// state: the copy reports !valid() and its next rebuild recomputes it from
// the copied module caches — bit-identical by the fixpoint argument above.
// A copy is usually probed or mutated right away, and both paths start
// with a full pass, so copying the O(V) arrival array would buy nothing.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "library/cell.hpp"
#include "netlist/netlist.hpp"
#include "support/error.hpp"

namespace iddq::est {

/// Immutable per-circuit ordering shared by every IncrementalTiming (and
/// every copy of every evaluator) over the same netlist. Adjacency and the
/// nominal cell delays are flattened into CSR arrays so the inner timing
/// loops touch contiguous memory instead of per-gate vectors (same
/// neighbour values in the same order — the arithmetic is unchanged).
class TimingGraph {
 public:
  TimingGraph(const netlist::Netlist& nl,
              std::span<const lib::CellParams> cells);

  [[nodiscard]] std::size_t gate_count() const noexcept {
    return rank_.size();
  }
  [[nodiscard]] std::span<const netlist::GateId> order() const noexcept {
    return order_;
  }
  /// Position of a gate in order() (fanins always rank lower).
  [[nodiscard]] std::uint32_t rank(netlist::GateId g) const {
    return rank_[g];
  }
  [[nodiscard]] std::span<const netlist::GateId> fanins(
      netlist::GateId g) const {
    return {fanin_flat_.data() + fanin_off_[g],
            fanin_off_[g + 1] - fanin_off_[g]};
  }
  [[nodiscard]] std::span<const netlist::GateId> fanouts(
      netlist::GateId g) const {
    return {fanout_flat_.data() + fanout_off_[g],
            fanout_off_[g + 1] - fanout_off_[g]};
  }
  /// Nominal cell delay D(g), in ps.
  [[nodiscard]] double delay_ps(netlist::GateId g) const {
    return delay_ps_[g];
  }

 private:
  std::vector<netlist::GateId> order_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> fanin_off_;   // size gate_count + 1
  std::vector<netlist::GateId> fanin_flat_;
  std::vector<std::uint32_t> fanout_off_;  // size gate_count + 1
  std::vector<netlist::GateId> fanout_flat_;
  std::vector<double> delay_ps_;
};

class IncrementalTiming {
 public:
  /// Seed sets at or above gate_count / kDenseSeedFactor are considered
  /// dense and take the plain full pass instead of the flagged sweep.
  /// The fanout-cone amplification on the deep Table-1 circuits makes the
  /// sweep cost more than a full pass already at ~1-2% seed density
  /// (module-pair seed sets reach two thirds of the circuit), so the
  /// cutover is deliberately aggressive; results are bit-identical either
  /// way, only the constant changes. Single-gate and few-gate seeds — the
  /// fine-grained regime the sweep targets — stay two orders of magnitude
  /// under a full pass (bench/perf_micro.cpp, BM_IncrementalVsFullTiming).
  static constexpr std::size_t kDenseSeedFactor = 64;

  /// `graph` must outlive the instance (it lives in the EvalContext;
  /// evaluator copies share it).
  explicit IncrementalTiming(const TimingGraph& graph) : graph_(&graph) {}

  /// Copies share the circuit but drop the arrival state (see above);
  /// moves keep it.
  IncrementalTiming(const IncrementalTiming& other) : graph_(other.graph_) {}
  IncrementalTiming& operator=(const IncrementalTiming& other) {
    graph_ = other.graph_;
    arrival_.clear();
    queued_.clear();
    journal_.clear();
    worst_ = 0.0;
    critical_ = netlist::kNoGate;
    valid_ = false;
    return *this;
  }
  IncrementalTiming(IncrementalTiming&&) = default;
  IncrementalTiming& operator=(IncrementalTiming&&) = default;

  /// False until the first rebuild() (and again after being copied from
  /// another instance): propagate()/probe() require a valid state.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Critical path of the current state, in ps (requires valid()).
  [[nodiscard]] double worst_ps() const noexcept { return worst_; }

  /// Arrival time of a gate under the current state, in ps.
  [[nodiscard]] double arrival_ps(netlist::GateId g) const {
    return arrival_[g];
  }

  /// Full pass: recomputes every arrival from `factor` (a callable
  /// `double(GateId)`, >= 1 for logic gates), replacing the persistent
  /// state. Returns the critical path in ps.
  template <class FactorFn>
  double rebuild(FactorFn&& factor) {
    arrival_.assign(graph_->gate_count(), 0.0);
    queued_.assign(graph_->gate_count(), 0);
    worst_ = 0.0;
    critical_ = netlist::kNoGate;
    // Exactly est::degraded_critical_path_ps's recurrence: primary inputs
    // keep arrival 0 and do not contend for the maximum.
    for (const netlist::GateId id : graph_->order()) {
      const auto fanins = graph_->fanins(id);
      if (fanins.empty()) continue;
      double in_arrival = 0.0;
      for (const netlist::GateId f : fanins)
        in_arrival = std::max(in_arrival, arrival_[f]);
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      arrival_[id] = in_arrival + graph_->delay_ps(id) * delta;
      if (arrival_[id] > worst_) {
        worst_ = arrival_[id];
        critical_ = id;
      }
    }
    valid_ = true;
    return worst_;
  }

  /// Incremental pass: `changed` lists the gates whose factor may have
  /// changed since the last rebuild/propagate (duplicates and false
  /// positives are fine, order is irrelevant). Recomputes the affected
  /// cone against `factor` and commits. Returns the critical path in ps.
  template <class FactorFn>
  double propagate(std::span<const netlist::GateId> changed,
                   FactorFn&& factor) {
    return run_worklist<false>(changed, std::forward<FactorFn>(factor));
  }

  /// Like propagate(), but restores the pre-call state (arrivals and
  /// critical witness) before returning: a what-if query. Dense seed sets
  /// skip the journaled sweep for a plain pass into scratch storage that
  /// never touches the persistent arrivals — bit-identical either way.
  template <class FactorFn>
  double probe(std::span<const netlist::GateId> changed, FactorFn&& factor) {
    if (changed.size() * kDenseSeedFactor >= graph_->gate_count())
      return probe_full(std::forward<FactorFn>(factor));
    return run_worklist<true>(changed, std::forward<FactorFn>(factor));
  }

  /// Full pass into scratch storage: the critical path under `factor`,
  /// bit-identical to rebuild(factor), with the persistent state neither
  /// required nor touched.
  template <class FactorFn>
  double probe_full(FactorFn&& factor) {
    scratch_arrival_.assign(graph_->gate_count(), 0.0);
    double worst = 0.0;
    for (const netlist::GateId id : graph_->order()) {
      const auto fanins = graph_->fanins(id);
      if (fanins.empty()) continue;
      double in_arrival = 0.0;
      for (const netlist::GateId f : fanins)
        in_arrival = std::max(in_arrival, scratch_arrival_[f]);
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      scratch_arrival_[id] = in_arrival + graph_->delay_ps(id) * delta;
      worst = std::max(worst, scratch_arrival_[id]);
    }
    return worst;
  }

 private:
  template <bool kJournal, class FactorFn>
  double run_worklist(std::span<const netlist::GateId> changed,
                      FactorFn&& factor) {
    IDDQ_ASSERT(valid_);
    // Flag the seeds, then sweep the topological order from the lowest
    // seed rank, recomputing only flagged gates. A flag test per swept
    // gate is a load and a branch — far cheaper than a heap — so a dense
    // cone costs a plain full pass over the suffix while a sparse one
    // exits as soon as the pending count drains.
    std::size_t pending = 0;
    std::uint32_t min_rank = 0;
    for (const netlist::GateId id : changed) {
      if (queued_[id]) continue;
      queued_[id] = 1;
      const std::uint32_t rank = graph_->rank(id);
      if (pending == 0 || rank < min_rank) min_rank = rank;
      ++pending;
    }
    bool rescan = false;
    const double worst_before = worst_;
    const netlist::GateId critical_before = critical_;
    const auto order = graph_->order();
    for (std::size_t i = min_rank; i < order.size() && pending > 0; ++i) {
      const netlist::GateId id = order[i];
      if (!queued_[id]) continue;
      queued_[id] = 0;
      --pending;
      const auto fanins = graph_->fanins(id);
      if (fanins.empty()) continue;  // primary input: arrival pinned at 0
      double in_arrival = 0.0;
      for (const netlist::GateId f : fanins)
        in_arrival = std::max(in_arrival, arrival_[f]);
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      const double updated = in_arrival + graph_->delay_ps(id) * delta;
      const double old = arrival_[id];
      if (updated == old) continue;  // cone pruned here
      if constexpr (kJournal) journal_.emplace_back(id, old);
      arrival_[id] = updated;
      if (updated > worst_) {
        worst_ = updated;
        critical_ = id;
      } else if (id == critical_ && updated < old) {
        // The witness itself got faster; the true maximum may now be held
        // by an untouched gate. Settle it once the sweep drains.
        rescan = true;
      }
      for (const netlist::GateId f : graph_->fanouts(id)) {
        if (queued_[f]) continue;  // fanouts rank higher: swept later
        queued_[f] = 1;
        ++pending;
      }
    }
    if (rescan && critical_ == critical_before) rescan_worst();
    const double result = worst_;
    if constexpr (kJournal) {
      for (auto it = journal_.rbegin(); it != journal_.rend(); ++it)
        arrival_[it->first] = it->second;
      journal_.clear();
      worst_ = worst_before;
      critical_ = critical_before;
    }
    return result;
  }

  void rescan_worst();

  const TimingGraph* graph_;

  std::vector<double> arrival_;          // by GateId; inputs stay 0
  double worst_ = 0.0;
  netlist::GateId critical_ = netlist::kNoGate;  // witness of worst_
  bool valid_ = false;

  // Worklist scratch (contents are meaningless between calls).
  std::vector<std::uint8_t> queued_;     // by GateId
  std::vector<std::pair<netlist::GateId, double>> journal_;
  std::vector<double> scratch_arrival_;  // probe_full working array
};

}  // namespace iddq::est
