// Incremental critical-path timing (the evaluator hot path).
//
// The paper's flow recomputes costs "just for the modified modules"
// (section 4.2), but the delay terms are global: D_BIC is the longest path
// with per-gate degraded delays D(g) * delta(g). A full pass is O(V + E)
// per fitness query — after a single-gate move that perturbs only two
// modules' delta factors, almost all of that work recomputes unchanged
// arrivals.
//
// IncrementalTiming keeps no arrivals between calls. Its state is a slack
// certificate taken from one full pass, which answers later factor
// assignments from the ~1% near-critical gates instead of a full pass, plus
// scratch storage and counters.
//
//   * TimingGraph (immutable, shared per circuit): one topological order
//     and the rank of every gate in it. Built once per EvalContext.
//   * arrival[g] = max over fanins of arrival[fanin] + D(g) * factor(g),
//     exactly the recurrence of est::degraded_critical_path_ps. One
//     full-pass kernel computes it for probe_full() and certify(), with the
//     same expression on the same operand values — there is no cross-gate
//     reassociation — so both are bit-identical to the full pass (pinned by
//     tests/estimators/test_incremental_timing.cpp).
//   * factors are supplied by a callable `double(GateId)` so the caller
//     (the evaluator) can serve them straight from its per-module anchor
//     rows without materialising a per-gate array.
//
// probe_full() evaluates a factor assignment as a plain pass into scratch
// storage. The evaluator takes it for a committed state the certificate
// cannot vouch for (after drop()) and as the probes' fallback.
//
// probe_certified() answers the same what-if without a full pass; it
// scores the evaluator's probes (probe_moves(), and probe_move() through
// it). A probed move dirties whole modules, whose gates may sit anywhere
// in the circuit; rather than re-time them, a slack certificate
// (certify()) is taken once from a full pass — arrivals a(g), worst D0
// and factors phi0, all released once the certificate is built — and
// every later state is judged against it:
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
// Because the certificate depends only on phi0 and D0, it outlives the
// state it was taken from:
//
//   * commit_certified() commits a new factor assignment by the same check
//     and the same O(|N|) pass and returns its critical path; a failed
//     check changes nothing, and the caller drops the certificate and
//     takes probe_full().
//   * The certificate is immutable and held by shared_ptr<const>: copying
//     an IncrementalTiming (a tabu slice copying the round-start
//     evaluator, a materialized ES survivor) shares it and starts with its
//     own empty scratch, so copies probe concurrently.
//   * A certificate carried across a commit is dropped by the first probe
//     it cannot vouch for, so the next certify() re-takes it from the
//     current state; a fresh one is kept, as probing never changes state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
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

  /// Copies share the circuit and the certificate, and start with their
  /// own empty scratch and zero counters (see above); moves keep
  /// everything.
  IncrementalTiming(const IncrementalTiming& other)
      : graph_(other.graph_), cert_(other.cert_), carried_(other.carried_) {}
  IncrementalTiming& operator=(const IncrementalTiming& other) {
    if (this != &other) *this = IncrementalTiming(other);
    return *this;
  }
  IncrementalTiming(IncrementalTiming&&) = default;
  IncrementalTiming& operator=(IncrementalTiming&&) = default;

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

    friend bool operator==(const Certificate&, const Certificate&) = default;
  };

  /// True while a certificate is held (certify(); shared by copies).
  [[nodiscard]] bool certified() const noexcept { return cert_ != nullptr; }

  /// The held certificate (requires certified()).
  [[nodiscard]] const Certificate& certificate() const noexcept {
    return *cert_;
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

  /// Drops the certificate (the next certify() takes a new one).
  void drop() noexcept {
    cert_.reset();
    carried_ = false;
  }

  /// Full pass into scratch storage: the critical path under `factor` (a
  /// callable `double(GateId)`, >= 1 for logic gates), bit-identical to
  /// est::degraded_critical_path_ps over the same factors.
  template <class FactorFn>
  double probe_full(FactorFn&& factor) {
    if (scratch_arrival_.size() != graph_->gate_count())
      scratch_arrival_.assign(graph_->gate_count(), 0.0);
    return forward_pass(factor, scratch_arrival_).first;
  }

  /// Takes the slack certificate of the state `factor` describes (see the
  /// header comment) from its own full pass, into arrays it releases when
  /// done. A no-op while certified().
  template <class FactorFn>
  void certify(FactorFn&& factor) {
    if (cert_ != nullptr) return;
    require(graph_->depth() < kMaxCertifiedDepth,
            "timing: circuit too deep for the slack certificate's rounding "
            "margin");
    std::vector<double> arrival(graph_->gate_count(), 0.0);
    const auto [worst, critical] = forward_pass(factor, arrival);
    auto cert = std::make_shared<Certificate>();
    cert->worst = worst;
    if (worst > 0.0) {
      // A flagged sweep of the topological order downwards: tails
      // accumulate in `tail`, flags in `queued`.
      std::vector<double> tail(graph_->gate_count(), 0.0);
      std::vector<std::uint8_t> queued(graph_->gate_count(), 0);
      const double cut = kNearFraction * worst * (1.0 - kRoundingMargin);
      // Seeds: primary inputs hold arrival 0 < cut, so only logic gates.
      std::size_t pending = 0;
      std::size_t top = 0;
      for (netlist::GateId id = 0; id < arrival.size(); ++id) {
        if (!(arrival[id] >= cut)) continue;
        queued[id] = 1;
        ++pending;
        top = std::max<std::size_t>(top, graph_->rank(id));
      }
      const auto order = graph_->order();
      for (std::size_t rank = top + 1; pending > 0;) {
        const netlist::GateId id = order[--rank];
        if (!queued[id]) continue;
        queued[id] = 0;
        --pending;
        // Every fanout ranks higher and has been swept: the tail is final.
        if (!(arrival[id] + tail[id] >= cut)) continue;
        cert->near.push_back(id);
        const double through = graph_->delay_ps(id) * factor(id) + tail[id];
        for (const netlist::GateId f : graph_->fanins(id)) {
          if (graph_->fanins(f).empty()) continue;  // primary input
          tail[f] = std::max(tail[f], through);
          if (queued[f]) continue;
          queued[f] = 1;
          ++pending;
        }
      }
      // The sweep settled N in decreasing rank.
      std::reverse(cert->near.begin(), cert->near.end());
      trace_chain(*cert, arrival, critical);
      link_near_fanins(*cert);
    }
    cert_ = std::move(cert);
    carried_ = false;
    ++recertifications_;
    // A certified state scores its what-ifs in O(|N|) arrays.
    std::vector<double>().swap(scratch_arrival_);
  }

  /// The critical path under `factor`, bit-identical to
  /// probe_full(factor), given a `ratio_bound` >= 1 that is >= factor(g)
  /// over the certified factor of g for every gate. Requires certified().
  /// Answers from the near set when the certificate vouches for `factor`
  /// and takes probe_full() otherwise; a certificate carried across a
  /// commit that fails to vouch is dropped.
  template <class FactorFn>
  double probe_certified(double ratio_bound, FactorFn&& factor) {
    if (const auto worst = near_pass(ratio_bound, factor)) {
      ++certified_probes_;
      return *worst;
    }
    ++fallback_probes_;
    if (carried_) drop();
    return probe_full(std::forward<FactorFn>(factor));
  }

  /// Commits `factor` as the current state when the certificate vouches
  /// for it (`ratio_bound` as for probe_certified): returns the critical
  /// path, the near-set maximum bit-identical to probe_full(factor), and
  /// keeps the certificate. Returns nullopt and changes nothing otherwise.
  /// Requires certified().
  template <class FactorFn>
  std::optional<double> commit_certified(double ratio_bound,
                                         FactorFn&& factor) {
    const auto worst = near_pass(ratio_bound, factor);
    if (!worst) return std::nullopt;
    carried_ = true;
    ++certified_commits_;
    return worst;
  }

 private:
  /// The one full-pass kernel: fills `arrival` (by GateId, zero at the
  /// primary inputs; every logic gate is overwritten before it is read)
  /// with est::degraded_critical_path_ps's recurrence — primary inputs
  /// keep arrival 0 and do not contend for the maximum — and
  /// returns the critical path and its witness, the first gate in
  /// topological order to reach it (kNoGate when it is 0).
  template <class FactorFn>
  std::pair<double, netlist::GateId> forward_pass(
      FactorFn& factor, std::vector<double>& arrival) const {
    double worst = 0.0;
    netlist::GateId critical = netlist::kNoGate;
    for (const netlist::GateId id : graph_->order()) {
      const auto fanins = graph_->fanins(id);
      if (fanins.empty()) continue;
      double in_arrival = 0.0;
      for (const netlist::GateId f : fanins)
        in_arrival = std::max(in_arrival, arrival[f]);
      const double delta = factor(id);
      IDDQ_ASSERT(delta >= 1.0);
      arrival[id] = in_arrival + graph_->delay_ps(id) * delta;
      if (arrival[id] > worst) {
        worst = arrival[id];
        critical = id;
      }
    }
    return {worst, critical};
  }

  /// The certificate's check and, when it passes, the O(|N|) pass: the
  /// near-set maximum, or nullopt.
  template <class FactorFn>
  std::optional<double> near_pass(double ratio_bound, FactorFn& factor) {
    IDDQ_ASSERT(cert_ != nullptr && ratio_bound >= 1.0);
    const Certificate& cert = *cert_;
    double lower = 0.0;
    for (const netlist::GateId id : cert.chain)
      lower = lower + graph_->delay_ps(id) * factor(id);
    if (!(lower > 0.0 && kNearFraction * cert.worst * ratio_bound *
                                 (1.0 + kRoundingMargin) <=
                             lower * (1.0 - kRoundingMargin)))
      return std::nullopt;
    // Fanins outside N count as arrival 0: only links inside N are kept.
    if (near_arrival_.size() < cert.near.size())
      near_arrival_.resize(cert.near.size());
    double worst = 0.0;
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
    return worst;
  }

  /// certify() helpers: trace the chain C back from the witness through
  /// argmax fanins; index N's internal fanin links.
  void trace_chain(Certificate& cert, std::span<const double> arrival,
                   netlist::GateId critical) const;
  void link_near_fanins(Certificate& cert) const;

  const TimingGraph* graph_;

  // probe_full's arrivals; empty in a copy and after a certify().
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
