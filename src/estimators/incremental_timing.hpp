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
// probe_full() evaluates a hypothetical factor assignment as a plain pass
// into scratch storage: it needs no valid persistent state and never
// writes it.
//
// probe_certified() answers the same what-if without a full pass; it
// scores both the evaluator's single-move probe_move() and its
// evolution-strategy children (probe_moves()). Either hypothetical dirties
// whole modules, far past the kDenseSeedFactor cutover, where a worklist
// degenerates into a suffix pass. Instead the current state carries a
// slack certificate (certify()), built once from its live arrivals a(g),
// worst D and factors phi:
//
//   * tails t(g), the longest path out of g, so P(g) = a(g) + t(g) is the
//     longest path through g;
//   * the near set N = {logic g : P(g) >= theta * D}, in topological
//     order. A backward walk finds it without a full backward pass: a
//     flagged sweep down the topological order that starts at the gates
//     with a(g) >= theta * D and flags fanins only of near gates. That is
//     complete because the argmax fanout of a near gate is itself near;
//   * the chain C: the parent's critical path, argmax fanins back from
//     the witness of D.
//
// For a child with factors phi' and a caller-supplied bound
// r >= max phi'/phi, LB is the arrival along C under phi', by the full
// pass's own expression. If theta*D*r*(1+eps) <= LB*(1-eps), the child's
// critical path is the maximum over N of A(g) = max(0, A over fanins in
// N) + D(g)*phi'(g), a pass over O(|N|) arrays that links N's internal
// fanins by position; otherwise probe_certified() falls back to
// probe_full(). Why that is exact: rounding is monotone, so A <= the full
// pass's arrival everywhere and LB <= the child's computed critical path.
// Every gate on the child's computed critical chain has a true
// path-through length of at least LB*(1-eps) and at most r*P(g)*(1+eps),
// so the whole chain lies in N, and along it A repeats the full pass
// operand for operand: the two maxima are bit-identical. eps bounds the
// relative rounding of a depth-long sum (certify() requires the depth to
// stay below kMaxCertifiedDepth), and every comparison takes its margin on
// the side that only grows N or forces the fallback; the walk's cut is
// theta*D*(1-eps). The certificate describes the arrivals it was built
// from: rebuild() and propagate() drop it, probe_full() and
// probe_certified() keep it.
//
// Copying an IncrementalTiming (a tabu slice copying the round-start
// evaluator, a materialized ES survivor) deliberately DROPS the arrival
// state and the certificate: the copy reports !valid() and its next
// rebuild recomputes the arrivals from the copied module caches —
// bit-identical by the fixpoint argument above. A copy is usually probed
// or mutated right away, and both paths start with a full pass, so
// copying the O(V) arrival array would buy nothing.
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
  /// Logic depth: the most logic gates on any input-to-output path.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

 private:
  std::vector<netlist::GateId> order_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> fanin_off_;   // size gate_count + 1
  std::vector<netlist::GateId> fanin_flat_;
  std::vector<std::uint32_t> fanout_off_;  // size gate_count + 1
  std::vector<netlist::GateId> fanout_flat_;
  std::vector<double> delay_ps_;
  std::size_t depth_ = 0;
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

  /// theta: the certificate's near set holds the gates on paths of at
  /// least this fraction of the critical path.
  static constexpr double kNearFraction = 0.99;
  /// eps: the relative rounding the certificate's comparisons absorb. A
  /// depth-long sum of rounded terms drifts by at most about depth * 2^-53
  /// relative, so 1e-9 is safe below kMaxCertifiedDepth.
  static constexpr double kRoundingMargin = 1e-9;
  static constexpr std::size_t kMaxCertifiedDepth = 1'000'000;

  /// `graph` must outlive the instance (it lives in the EvalContext;
  /// evaluator copies share it).
  explicit IncrementalTiming(const TimingGraph& graph) : graph_(&graph) {}

  /// Copies share the circuit but drop the arrival state (see above);
  /// moves keep it.
  IncrementalTiming(const IncrementalTiming& other)
      : IncrementalTiming(*other.graph_) {}
  IncrementalTiming& operator=(const IncrementalTiming& other) {
    if (this != &other) *this = IncrementalTiming(*other.graph_);
    return *this;
  }
  IncrementalTiming(IncrementalTiming&&) = default;
  IncrementalTiming& operator=(IncrementalTiming&&) = default;

  /// False until the first rebuild() (and again after being copied from
  /// another instance): propagate() and certify() require a valid state.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Critical path of the current state, in ps (requires valid()).
  [[nodiscard]] double worst_ps() const noexcept { return worst_; }

  /// Arrival time of a gate under the current state, in ps.
  [[nodiscard]] double arrival_ps(netlist::GateId g) const {
    return arrival_[g];
  }

  /// True while a certificate of the current arrivals exists (certify()).
  [[nodiscard]] bool certified() const noexcept { return certified_; }

  /// The certificate's near set, in topological order (requires
  /// certified()).
  [[nodiscard]] std::span<const netlist::GateId> near_gates() const noexcept {
    return near_;
  }

  /// How many probe_certified() calls this instance answered from the near
  /// set, and how many fell back to probe_full(). Copies start at zero.
  [[nodiscard]] std::size_t certified_probes() const noexcept {
    return certified_probes_;
  }
  [[nodiscard]] std::size_t fallback_probes() const noexcept {
    return fallback_probes_;
  }

  /// Full pass: recomputes every arrival from `factor` (a callable
  /// `double(GateId)`, >= 1 for logic gates), replacing the persistent
  /// state. Returns the critical path in ps.
  template <class FactorFn>
  double rebuild(FactorFn&& factor) {
    certified_ = false;
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
    IDDQ_ASSERT(valid_);
    certified_ = false;
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
    return worst_;
  }

  /// Full pass into scratch storage: the critical path under `factor`,
  /// bit-identical to rebuild(factor), with the persistent state neither
  /// required nor touched.
  template <class FactorFn>
  double probe_full(FactorFn&& factor) {
    prepare_scratch();
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
    std::fill(scratch_arrival_.begin(), scratch_arrival_.end(), 0.0);
    return worst;
  }

  /// Builds the slack certificate of the current arrivals (see the header
  /// comment); `factor` must be the one they were computed from. A no-op
  /// while certified(). Requires valid().
  template <class FactorFn>
  void certify(FactorFn&& factor) {
    IDDQ_ASSERT(valid_);
    if (certified_) return;
    require(graph_->depth() < kMaxCertifiedDepth,
            "timing: circuit too deep for the slack certificate's rounding "
            "margin");
    near_.clear();
    chain_.clear();
    if (worst_ > 0.0) {
      // A flagged sweep of the topological order downwards, like
      // propagate()'s upwards: tails accumulate in scratch_arrival_ and
      // flags in queued_, both zero again once the sweep drains.
      prepare_scratch();
      const double cut = kNearFraction * worst_ * (1.0 - kRoundingMargin);
      // Seeds: primary inputs hold arrival 0 < cut, so only logic gates.
      std::size_t pending = 0;
      std::size_t top = 0;
      for (netlist::GateId id = 0; id < arrival_.size(); ++id) {
        if (!(arrival_[id] >= cut)) continue;
        queued_[id] = 1;
        ++pending;
        top = std::max<std::size_t>(top, graph_->rank(id));
      }
      const auto order = graph_->order();
      for (std::size_t rank = top + 1; pending > 0;) {
        const netlist::GateId id = order[--rank];
        if (!queued_[id]) continue;
        queued_[id] = 0;
        --pending;
        // Every fanout ranks higher and has been swept: the tail is final.
        const double tail = scratch_arrival_[id];
        scratch_arrival_[id] = 0.0;
        if (!(arrival_[id] + tail >= cut)) continue;
        near_.push_back(id);
        const double through = graph_->delay_ps(id) * factor(id) + tail;
        for (const netlist::GateId f : graph_->fanins(id)) {
          if (graph_->fanins(f).empty()) continue;  // primary input
          scratch_arrival_[f] = std::max(scratch_arrival_[f], through);
          if (queued_[f]) continue;
          queued_[f] = 1;
          ++pending;
        }
      }
      // The sweep settled N in decreasing rank.
      std::reverse(near_.begin(), near_.end());
      trace_chain();
      link_near_fanins();
    }
    certified_ = true;
  }

  /// The critical path under the child factors `factor`, bit-identical to
  /// probe_full(factor), given a `ratio_bound` >= 1 that is >= factor(g)
  /// over the certified factor of g for every gate. Requires certified().
  /// Answers from the near set when the certificate vouches for the child
  /// and takes probe_full() otherwise.
  template <class FactorFn>
  double probe_certified(double ratio_bound, FactorFn&& factor) {
    IDDQ_ASSERT(certified_ && ratio_bound >= 1.0);
    double lower = 0.0;
    for (const netlist::GateId id : chain_)
      lower = lower + graph_->delay_ps(id) * factor(id);
    if (!(lower > 0.0 && kNearFraction * worst_ * ratio_bound *
                                 (1.0 + kRoundingMargin) <=
                             lower * (1.0 - kRoundingMargin))) {
      ++fallback_probes_;
      return probe_full(std::forward<FactorFn>(factor));
    }
    // Fanins outside N count as arrival 0: only links inside N are kept.
    double worst = 0.0;
    for (std::size_t i = 0; i < near_.size(); ++i) {
      double in_arrival = 0.0;
      for (std::uint32_t k = near_link_off_[i]; k < near_link_off_[i + 1];
           ++k)
        in_arrival = std::max(in_arrival, near_arrival_[near_link_[k]]);
      const netlist::GateId id = near_[i];
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      near_arrival_[i] = in_arrival + graph_->delay_ps(id) * delta;
      worst = std::max(worst, near_arrival_[i]);
    }
    ++certified_probes_;
    return worst;
  }

 private:
  void rescan_worst();
  /// Allocates scratch_arrival_ (all zero between calls) when a copy or
  /// a certify() left it empty.
  void prepare_scratch() {
    if (scratch_arrival_.size() != graph_->gate_count())
      scratch_arrival_.assign(graph_->gate_count(), 0.0);
  }
  /// certify() helpers: trace the chain C back from the witness; index
  /// N's internal fanin links, then release the scratch array (a
  /// certified parent scores its children in the O(|N|) arrays below).
  void trace_chain();
  void link_near_fanins();

  const TimingGraph* graph_;

  std::vector<double> arrival_;          // by GateId; inputs stay 0
  double worst_ = 0.0;
  netlist::GateId critical_ = netlist::kNoGate;  // witness of worst_
  bool valid_ = false;

  // Worklist scratch (contents are meaningless between calls).
  std::vector<std::uint8_t> queued_;     // by GateId
  // probe_full's arrivals and the walk's tails; all zero between calls,
  // empty after a certify().
  std::vector<double> scratch_arrival_;

  // Slack certificate of the arrivals above (valid while certified_).
  bool certified_ = false;
  std::vector<netlist::GateId> near_;   // N, topological order
  // CSR over N: the positions in near_ of near_[i]'s fanins that are in N,
  // in fanin order.
  std::vector<std::uint32_t> near_link_off_;  // size |N| + 1
  std::vector<std::uint32_t> near_link_;
  std::vector<double> near_arrival_;    // A, by position in near_
  std::vector<netlist::GateId> chain_;  // C, from the inputs to the witness
  std::size_t certified_probes_ = 0;
  std::size_t fallback_probes_ = 0;
};

}  // namespace iddq::est
