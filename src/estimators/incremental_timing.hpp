// Incremental critical-path timing (the evaluator hot path).
//
// The paper's flow recomputes costs "just for the modified modules"
// (section 4.2), but the delay terms are global: D_BIC is the longest path
// with per-gate degraded delays D(g) * delta(g). A full pass is O(V + E)
// per fitness query — after a single-gate move that perturbs only two
// modules' delta factors, almost all of that work recomputes unchanged
// arrivals.
//
// IncrementalTiming keeps the per-gate arrival state of the last full
// pass and a slack certificate taken from it, which answers later factor
// assignments from the ~1% near-critical gates instead of a full pass:
//
//   * TimingGraph (immutable, shared per circuit): one topological order
//     and the rank of every gate in it. Built once per EvalContext.
//   * arrival[g] = max over fanins of arrival[fanin] + D(g) * factor(g),
//     exactly the recurrence of est::degraded_critical_path_ps. Each
//     arrival is a pure function of the fanin arrivals and the gate's own
//     factor, computed with the same expression on the same operand values
//     — there is no cross-gate reassociation — so rebuild() and
//     probe_full() are bit-identical to the full pass (pinned by
//     tests/estimators/test_incremental_timing.cpp).
//   * factors are supplied by a callable `double(GateId)` so the caller
//     (the evaluator) can serve them straight from its per-module anchor
//     rows without materialising a per-gate array.
//
// probe_full() evaluates a hypothetical factor assignment as a plain pass
// into scratch storage: it needs no valid persistent state and never
// writes it.
//
// probe_certified() answers the same what-if without a full pass; it
// scores the evaluator's probes (probe_moves(), and probe_move() through
// it). A probed move dirties whole modules, whose gates may sit anywhere
// in the circuit; rather than re-time them, a slack certificate
// (certify()) is taken once from a full pass — live arrivals a(g), worst
// D0 and factors phi0 — and every later state is judged against it:
//
//   * tails t(g), the longest path out of g, so P(g) = a(g) + t(g) is the
//     longest path through g;
//   * the near set N = {logic g : P(g) >= theta * D0}, in topological
//     order. A backward walk finds it without a full backward pass: a
//     flagged sweep down the topological order that starts at the gates
//     with a(g) >= theta * D0 and flags fanins only of near gates. That is
//     complete because the argmax fanout of a near gate is itself near;
//   * the chain C: the certified state's critical path, argmax fanins
//     back from the witness of D0.
//
// For factors phi' and a caller-supplied cumulative bound
// r >= max phi'/phi0 — measured from the certified state, not from the
// current one — LB is the arrival along C under phi', by the full pass's
// own expression. If theta*D0*r*(1+eps) <= LB*(1-eps), the critical path
// under phi' is the maximum over N of A(g) = max(0, A over fanins in N) +
// D(g)*phi'(g), a pass over O(|N|) arrays that links N's internal fanins
// by position; otherwise probe_certified() falls back to probe_full().
// Why that is exact: rounding is monotone, so A <= the full pass's arrival
// everywhere and LB <= the computed critical path under phi'. Every gate
// on that computed critical chain has a true path-through length of at
// least LB*(1-eps) under phi' and so at least LB*(1-eps)/(r*(1+eps)) >=
// theta*D0 under phi0: the whole chain lies in N, and along it A repeats
// the full pass operand for operand — the two maxima are bit-identical.
// eps bounds the relative rounding of a depth-long sum (certify() requires
// the depth to stay below kMaxCertifiedDepth), and every comparison takes
// its margin on the side that only grows N or forces the fallback; the
// walk's cut is theta*D0*(1-eps).
//
// Because the certificate depends only on phi0 and D0, never on the
// current arrivals, it outlives the state it was taken from:
//
//   * commit_certified() commits a new factor assignment by the same check
//     and the same O(|N|) pass, leaving the arrivals stale (!valid()); a
//     failed check changes nothing, and the caller takes rebuild(), which
//     drops the certificate.
//   * The certificate is immutable and held by shared_ptr<const>: copying
//     an IncrementalTiming (a tabu slice copying the round-start
//     evaluator, a materialized ES survivor) shares it, drops the O(V)
//     arrival array (the copy reports !valid(); its next rebuild
//     recomputes it bit-identically by the fixpoint argument above) and
//     starts with its own O(|N|) scratch, so copies probe concurrently.
//   * A certificate carried across a commit is dropped by the first probe
//     it cannot vouch for, so the next certify() re-takes it from the
//     current state; a fresh one is kept, as probing never changes state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
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
  /// Per-gate logic depth, by GateId: inputs 0, a logic gate one more than
  /// its deepest fanin (netlist::levelize's `depth`).
  [[nodiscard]] std::span<const std::size_t> depths() const noexcept {
    return gate_depth_;
  }

 private:
  std::vector<netlist::GateId> order_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint32_t> fanin_off_;   // size gate_count + 1
  std::vector<netlist::GateId> fanin_flat_;
  std::vector<std::uint32_t> fanout_off_;  // size gate_count + 1
  std::vector<netlist::GateId> fanout_flat_;
  std::vector<double> delay_ps_;
  std::vector<std::size_t> gate_depth_;
  std::size_t depth_ = 0;
};

class IncrementalTiming {
 public:
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

  /// Copies share the circuit, the critical path and the certificate but
  /// drop the arrival state, and start with zero counters (see above);
  /// moves keep everything.
  IncrementalTiming(const IncrementalTiming& other)
      : graph_(other.graph_),
        worst_(other.worst_),
        cert_(other.cert_),
        carried_(other.carried_) {}
  IncrementalTiming& operator=(const IncrementalTiming& other) {
    if (this != &other) *this = IncrementalTiming(other);
    return *this;
  }
  IncrementalTiming(IncrementalTiming&&) = default;
  IncrementalTiming& operator=(IncrementalTiming&&) = default;

  /// False until the first rebuild(), after a commit_certified(), and in a
  /// copy: arrival_ps() and certify() require a valid state.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Critical path of the current state, in ps (after a rebuild() or
  /// commit_certified()).
  [[nodiscard]] double worst_ps() const noexcept { return worst_; }

  /// Arrival time of a gate under the current state, in ps (requires
  /// valid()).
  [[nodiscard]] double arrival_ps(netlist::GateId g) const {
    return arrival_[g];
  }

  /// True while a certificate is held (certify(); shared by copies).
  [[nodiscard]] bool certified() const noexcept { return cert_ != nullptr; }

  /// The certificate's near set, in topological order (requires
  /// certified()).
  [[nodiscard]] std::span<const netlist::GateId> near_gates() const noexcept {
    return cert_->near;
  }

  /// How many probe_certified() calls this instance answered from the near
  /// set, and how many fell back to probe_full(); how many commits
  /// commit_certified() took from the near set; and how many certificates
  /// certify() built. Copies start at zero.
  [[nodiscard]] std::size_t certified_probes() const noexcept {
    return certified_probes_;
  }
  [[nodiscard]] std::size_t fallback_probes() const noexcept {
    return fallback_probes_;
  }
  [[nodiscard]] std::size_t certified_commits() const noexcept {
    return certified_commits_;
  }
  [[nodiscard]] std::size_t recertifications() const noexcept {
    return recertifications_;
  }

  /// Full pass: recomputes every arrival from `factor` (a callable
  /// `double(GateId)`, >= 1 for logic gates), replacing the persistent
  /// state and dropping the certificate. Returns the critical path in ps.
  template <class FactorFn>
  double rebuild(FactorFn&& factor) {
    cert_.reset();
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

  /// Takes the slack certificate of the current arrivals (see the header
  /// comment); `factor` must be the one they were computed from. A no-op
  /// while certified() — a held certificate with valid arrivals was taken
  /// from them, since commits that keep it leave the arrivals stale.
  /// Requires valid().
  template <class FactorFn>
  void certify(FactorFn&& factor) {
    IDDQ_ASSERT(valid_);
    if (cert_ != nullptr) return;
    require(graph_->depth() < kMaxCertifiedDepth,
            "timing: circuit too deep for the slack certificate's rounding "
            "margin");
    auto cert = std::make_shared<Certificate>();
    cert->worst = worst_;
    if (worst_ > 0.0) {
      // A flagged sweep of the topological order downwards: tails
      // accumulate in scratch_arrival_ and flags in queued_, both zero
      // again once the sweep drains.
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
        cert->near.push_back(id);
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
      std::reverse(cert->near.begin(), cert->near.end());
      trace_chain(*cert);
      link_near_fanins(*cert);
    }
    cert_ = std::move(cert);
    carried_ = false;
    ++recertifications_;
  }

  /// The critical path under `factor`, bit-identical to
  /// probe_full(factor), given a `ratio_bound` >= 1 that is >= factor(g)
  /// over the certified factor of g for every gate. Requires certified().
  /// Answers from the near set when the certificate vouches for `factor`
  /// and takes probe_full() otherwise; a certificate carried across a
  /// commit that fails to vouch is dropped.
  template <class FactorFn>
  double probe_certified(double ratio_bound, FactorFn&& factor) {
    double worst = 0.0;
    if (near_pass(ratio_bound, factor, worst)) {
      ++certified_probes_;
      return worst;
    }
    ++fallback_probes_;
    if (carried_) cert_.reset();
    return probe_full(std::forward<FactorFn>(factor));
  }

  /// Commits `factor` as the current state when the certificate vouches
  /// for it (`ratio_bound` as for probe_certified): the critical path
  /// becomes the near-set maximum, bit-identical to rebuild(factor), the
  /// certificate is kept and the arrivals go stale (!valid()). Returns
  /// false and changes nothing otherwise. Requires certified().
  template <class FactorFn>
  bool commit_certified(double ratio_bound, FactorFn&& factor) {
    double worst = 0.0;
    if (!near_pass(ratio_bound, factor, worst)) return false;
    worst_ = worst;
    critical_ = netlist::kNoGate;
    valid_ = false;
    carried_ = true;
    ++certified_commits_;
    return true;
  }

 private:
  /// The slack certificate (see the header comment): immutable once
  /// certify() has built it.
  struct Certificate {
    double worst = 0.0;                 // D0
    std::vector<netlist::GateId> near;  // N, topological order
    // CSR over N: the positions in `near` of near[i]'s fanins that are in
    // N, in fanin order.
    std::vector<std::uint32_t> link_off;  // size |N| + 1
    std::vector<std::uint32_t> link;
    std::vector<netlist::GateId> chain;  // C, from the inputs to the witness
  };

  /// The certificate's check and, when it passes, the O(|N|) pass: sets
  /// `worst` and returns true, or returns false.
  template <class FactorFn>
  bool near_pass(double ratio_bound, FactorFn& factor, double& worst) {
    IDDQ_ASSERT(cert_ != nullptr && ratio_bound >= 1.0);
    const Certificate& cert = *cert_;
    double lower = 0.0;
    for (const netlist::GateId id : cert.chain)
      lower = lower + graph_->delay_ps(id) * factor(id);
    if (!(lower > 0.0 && kNearFraction * cert.worst * ratio_bound *
                                 (1.0 + kRoundingMargin) <=
                             lower * (1.0 - kRoundingMargin)))
      return false;
    // Fanins outside N count as arrival 0: only links inside N are kept.
    if (near_arrival_.size() < cert.near.size())
      near_arrival_.resize(cert.near.size());
    worst = 0.0;
    for (std::size_t i = 0; i < cert.near.size(); ++i) {
      double in_arrival = 0.0;
      for (std::uint32_t k = cert.link_off[i]; k < cert.link_off[i + 1]; ++k)
        in_arrival = std::max(in_arrival, near_arrival_[cert.link[k]]);
      const netlist::GateId id = cert.near[i];
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      near_arrival_[i] = in_arrival + graph_->delay_ps(id) * delta;
      worst = std::max(worst, near_arrival_[i]);
    }
    return true;
  }

  /// Allocates scratch_arrival_ (all zero between calls) when a copy or
  /// a certify() left it empty.
  void prepare_scratch() {
    if (scratch_arrival_.size() != graph_->gate_count())
      scratch_arrival_.assign(graph_->gate_count(), 0.0);
  }
  /// certify() helpers: trace the chain C back from the witness; index
  /// N's internal fanin links, then release the scratch array (a
  /// certified state scores its what-ifs in O(|N|) arrays).
  void trace_chain(Certificate& cert) const;
  void link_near_fanins(Certificate& cert);

  const TimingGraph* graph_;

  std::vector<double> arrival_;          // by GateId; inputs stay 0
  double worst_ = 0.0;
  netlist::GateId critical_ = netlist::kNoGate;  // witness of worst_
  bool valid_ = false;

  // The certificate walk's flags; all zero between calls.
  std::vector<std::uint8_t> queued_;     // by GateId
  // probe_full's arrivals and the walk's tails; all zero between calls,
  // empty after a certify().
  std::vector<double> scratch_arrival_;

  std::shared_ptr<const Certificate> cert_;
  // True once a commit has moved the state away from the certified one.
  bool carried_ = false;
  std::vector<double> near_arrival_;  // A, by position in the near set
  std::size_t certified_probes_ = 0;
  std::size_t fallback_probes_ = 0;
  std::size_t certified_commits_ = 0;
  std::size_t recertifications_ = 0;
};

}  // namespace iddq::est
