// PartitionEvaluator: incremental evaluation of constraints and costs.
//
// The paper's evolution strategy relies on recomputing costs "just for the
// modified modules" (section 4.2). EvalContext holds everything immutable
// per circuit (netlist, bound cells, transition-time sets, distance oracle,
// timing graph, settling model, sensor spec, weights); PartitionEvaluator
// holds one partition plus per-module caches:
//
//   * current/count profiles  -> iDD_max,i, n_i(t)      (add/remove per gate)
//   * leakage sums            -> discriminability check (O(1) per move)
//   * separation sums S(M_i)  -> c3                     (O(|near|) per move)
//   * virtual-rail capacitance-> tau_i                  (O(1) per move)
//   * per-module cell-type counts -> delay-model anchors
//   * per-gate boundary counts -> boundary(m), the move sources  (O(deg g))
//
// The delay-dependent terms (c2, c4) and the per-module sensor areas (c1)
// are refreshed lazily on query, but *incrementally*: a move dirties
// exactly its {source, target} modules and the refresh rederives the delay
// anchors / area / settling only for dirty modules (into persistent scratch
// — no per-query allocation). D_BIC comes from est::IncrementalTiming's
// slack certificate when it vouches for the new factors — a pass over the
// ~1% near-critical gates — and from a full timing pass otherwise. Every
// derived value is a pure function of the per-module sums, computed by the
// same expressions on the same operands as a full recomputation, so the
// refresh is bit-identical to the historical full pass.
//
// Hypothetical moves (probe_moves for a move list, probe_move for one
// gate) are scored against the current state without a copy: the moves
// are applied in place, the dirty modules rederived, the critical path
// taken from the certificate, and the touched slots rolled back. The
// certificate is taken once from a full pass and then carried: commits
// re-validate it (a committed move costs a near-set pass, not a timing
// pass), copies share it, and a per-slot floor matrix bounds how far any
// factor rose since it was taken. The delay derivation is memoized
// exactly — its outputs are a pure function of (iDD_max, n_max, cvr), so a
// small direct-mapped table keyed by their bit patterns returns the very
// bits a solve would (a commit's refresh re-derives exactly the rows its
// probe derived).
// tests/partition/test_incremental.cpp verifies full == incremental on
// random move sequences; tests/partition/test_probe.cpp pins probe_move
// and tests/partition/test_probe_moves.cpp pins probe_moves against
// copy + move_gate + fitness bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "electrical/sensor_model.hpp"
#include "electrical/settling.hpp"
#include "estimators/current_profile.hpp"
#include "estimators/incremental_timing.hpp"
#include "estimators/transition_times.hpp"
#include "library/cell_library.hpp"
#include "netlist/distance_oracle.hpp"
#include "netlist/netlist.hpp"
#include "partition/cost_model.hpp"
#include "partition/partition.hpp"

namespace iddq::part {

/// Immutable per-circuit evaluation context (shared by many evaluators).
class EvalContext {
 public:
  /// `grid_bin_ps` is the transition-time grid resolution (section 3.1's
  /// time grid); the default resolves a quarter of the fastest default-
  /// library cell.
  EvalContext(const netlist::Netlist& nl, const lib::CellLibrary& library,
              elec::SensorSpec sensor, CostWeights weights,
              std::uint32_t rho = 4, double grid_bin_ps = 45.0);

  const netlist::Netlist& nl;
  std::vector<lib::CellParams> cells;      // by GateId
  est::TransitionTimes transition_times;
  netlist::DistanceOracle oracle;
  est::TimingGraph timing_graph;           // shared topological order
  elec::SettlingModel settling;
  elec::SensorSpec sensor;
  CostWeights weights;

  /// Dense cell-type indexing for the delay-model anchor cache.
  std::vector<std::uint16_t> type_of;      // by GateId; inputs = 0 (unused)
  std::vector<double> type_cg_ff;          // by type index
  std::vector<double> type_rg_kohm;        // by type index
  std::size_t type_count = 0;

  double d_nominal_ps = 0.0;               // critical path without sensors
  double leak_cap_ua = 0.0;                // IDDQ_th / d
};

/// Per-module snapshot used by reports and benches.
struct ModuleReport {
  std::size_t gates = 0;
  double idd_max_ua = 0.0;
  double leakage_ua = 0.0;
  double discriminability = 0.0;
  double rs_kohm = 0.0;
  double cs_ff = 0.0;
  double tau_ps = 0.0;
  double area = 0.0;
  double separation = 0.0;
  double rail_perturbation_mv = 0.0;
  double settle_ps = 0.0;
};

/// What a hypothetical move would score: exactly the Fitness/Costs a copy
/// of the evaluator would report after move_gate(), without the copy.
struct MoveProbe {
  Fitness fitness;
  Costs costs;
};

/// Per-instance scratch buffers excluded from copies: a copied evaluator
/// starts with fresh (empty) scratch instead of duplicating its source's
/// buffers — the contents are meaningless between calls (the probes'
/// slot snapshots), so copying them would only add bytes to
/// every tabu slice, annealing probe and materialized ES survivor.
template <class T>
struct CopyDroppedScratch {
  T value{};
  CopyDroppedScratch() = default;
  CopyDroppedScratch(const CopyDroppedScratch&) noexcept {}
  CopyDroppedScratch& operator=(const CopyDroppedScratch&) noexcept {
    return *this;
  }
  CopyDroppedScratch(CopyDroppedScratch&&) = default;
  CopyDroppedScratch& operator=(CopyDroppedScratch&&) = default;
};

class PartitionEvaluator {
 public:
  /// Takes ownership of the partition and fully computes all caches.
  PartitionEvaluator(const EvalContext& ctx, Partition partition);

  // Copyable: tabu slices and materialized ES survivors copy an evaluator.
  PartitionEvaluator(const PartitionEvaluator&) = default;
  PartitionEvaluator& operator=(const PartitionEvaluator&) = default;
  PartitionEvaluator(PartitionEvaluator&&) = default;
  PartitionEvaluator& operator=(PartitionEvaluator&&) = default;

  [[nodiscard]] const Partition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] const EvalContext& context() const noexcept { return *ctx_; }

  /// Moves a gate to another module, incrementally updating every cache.
  /// Erases the source module if the move empties it (module indices shift
  /// as documented on Partition::erase_empty_module).
  void move_gate(netlist::GateId g, std::uint32_t target);

  /// Fills `out` with the boundary gates of module `m`: the gates wired
  /// (fan-in or fan-out) to a logic gate outside m, in module order — the
  /// move sources of the ES mutation, the local searches' sampler and the
  /// greedy refiner. O(|M_m|): a filter over the per-gate boundary
  /// counts, which committed moves keep current.
  void boundary(std::uint32_t m, std::vector<netlist::GateId>& out) const;

  /// Scores the move (g -> target) against the current state without
  /// committing it: probe_moves of that one move, so bit-for-bit what
  /// `copy = *this; copy.move_gate(g, target); {copy.fitness(),
  /// copy.costs()}` would return, without the O(gates + K*grid) copy.
  /// Requires a move that does not empty its source module (the
  /// accept/reject loops never propose one; commit emptying moves with
  /// move_gate directly).
  [[nodiscard]] MoveProbe probe_move(netlist::GateId g, std::uint32_t target);

  /// Scores a whole move list against the current state without keeping
  /// it: returns bit-for-bit what `copy = *this; for (mv : moves)
  /// copy.move_gate(mv.gate, mv.target); {copy.fitness(), copy.costs()}`
  /// would. The moves are applied in place — each module slot a move (or
  /// the module erasure of an emptying move) touches is snapshotted first
  /// — and scored, and then the snapshots and the partition journal are
  /// restored, so no arithmetic residue remains and the persistent
  /// arrivals are never written. The critical path comes from the timing
  /// engine's slack certificate (shared with the evaluator this one was
  /// copied from, or taken on the first probe that finds none): a pass
  /// over the ~1% near-critical gates, bounded by how far any gate's
  /// factor rose since the certificate was taken (the floor rows), with a
  /// full pass into scratch storage as the fallback when the bound does
  /// not vouch for the child. Emptying moves are allowed; targets index
  /// the module slots as they are when that move is applied. The
  /// evaluator's logical state is unchanged (lazy module caches may be
  /// rederived). This is how the evolution strategy scores a child on its
  /// parent instead of a copy.
  [[nodiscard]] MoveProbe probe_moves(std::span<const Move> moves);

  /// The timing engine, read-only: tests count how many probes and
  /// commits its certificate answered and how many took the full pass.
  [[nodiscard]] const est::IncrementalTiming& timing() const noexcept {
    return timing_;
  }

  /// Constraint violation: sum over modules of the relative leakage excess
  /// over IDDQ_th/d; 0 when the partition is feasible. O(K).
  [[nodiscard]] double violation() const;

  /// All five cost terms (refreshes the lazy delay/area terms when dirty).
  [[nodiscard]] Costs costs();

  /// Lexicographic fitness (violation, weighted cost).
  [[nodiscard]] Fitness fitness();

  /// Degraded critical path D_BIC, in ps (triggers delay evaluation).
  [[nodiscard]] double d_bic_ps();

  /// Brings every lazy cache up to date now (dirty modules rederived;
  /// D_BIC from the certificate's near set when it still vouches, else
  /// from a full timing pass). Queries do this on demand.
  void refresh();

  /// refresh(), and when no slack certificate is held, takes one from a
  /// full pass, resetting the floor rows to the delta rows — what both
  /// probes score against. Probes do this on demand; call it explicitly
  /// before copying an evaluator for probe work (tabu and greedy worker
  /// slices, the annealer's calibration copy) so the copies share one
  /// certificate instead of each taking its own.
  void certify();

  /// Per-module report for tables.
  [[nodiscard]] ModuleReport module_report(std::uint32_t m);

  /// Total BIC sensor area (sum over modules).
  [[nodiscard]] double total_sensor_area();

  /// Verification helper: recomputes every cache from scratch and compares
  /// with the incrementally maintained state (throws on mismatch). Covers
  /// the boundary counts and the lazy delay state: the degradation
  /// factors, per-module area and settling caches, and D_BIC must match a
  /// from-scratch derivation of the current sums bit-for-bit.
  void self_check();

 private:
  void rebuild_all();
  /// move_gate without the boundary-count update: probe_moves applies its
  /// moves through this, so the counts stay those of the committed state
  /// its rollback restores.
  void apply_move(netlist::GateId g, std::uint32_t target);
  void erase_module(std::uint32_t m);
  /// Rederives the delay anchors, area, settling and slot ratio of every
  /// dirty module in place (flags untouched).
  void derive_dirty_modules();
  /// The cost terms of the current module caches with the given critical
  /// path and settling maximum — the one assembly costs() and
  /// probe_moves() share.
  [[nodiscard]] Costs assemble_costs(double d_bic_ps,
                                     double settle_max_ps) const;
  /// Copies module slot m's caches into the probe_moves snapshot list
  /// unless this probe already did.
  void snapshot_slot(std::uint32_t m);
  /// Puts every snapshotted slot back and regrows the per-module arrays
  /// to `module_count` slots.
  void restore_slots(std::size_t module_count);
  /// A bound r >= 1 on the factor of every gate in a slot over its
  /// certified factor: max over the types the slot holds of its delta
  /// over its floor. The certificate's ratio bound is the max over slots.
  [[nodiscard]] static double slot_ratio(std::span<const std::uint32_t> hist,
                                         std::span<const double> delta,
                                         std::span<const double> floors);
  [[nodiscard]] double module_rs_kohm(std::uint32_t m) const;
  [[nodiscard]] double module_cs_ff(std::uint32_t m) const;
  /// Derives the delay-model anchors, sensor area, and settling time of a
  /// module's (profile, cvr, histogram) state: solve_module_delay through
  /// the exact memo, with the types the histogram lacks set to 1.0. The
  /// single code path for refresh() and the probes — sharing it is what
  /// keeps probe arithmetic bit-identical to committed refreshes.
  /// Non-const: a hit or miss rewrites the memo. The row span must be
  /// ctx_->type_count wide (a row of the SoA matrices below).
  void derive_module_delay(double idd_max_ua, std::uint32_t max_switching,
                           double cvr_ff,
                           std::span<const std::uint32_t> histogram,
                           std::span<double> type_delta_row, double& area,
                           double& settle);
  /// The uncached derivation behind derive_module_delay, for every type
  /// (the delay-model solve of one type does not depend on the others).
  /// self_check() uses it as the reference for the memo.
  void solve_module_delay(double idd_max_ua, std::uint32_t max_switching,
                          double cvr_ff, std::span<double> type_delta_row,
                          double& area, double& settle) const;
  void mark_dirty(std::uint32_t m);
  /// Degradation factor of gate g under the cached delta rows — what the
  /// timing engine is fed on the committed state.
  [[nodiscard]] double gate_factor(netlist::GateId g) const {
    return type_delta_[partition_.module_of(g) * ctx_->type_count +
                       ctx_->type_of[g]];
  }

  /// Rows of the flat [module x type] SoA matrices.
  [[nodiscard]] std::span<const std::uint32_t> hist_row(
      std::uint32_t m) const noexcept {
    return std::span<const std::uint32_t>(type_histogram_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<std::uint32_t> hist_row(std::uint32_t m) noexcept {
    return std::span<std::uint32_t>(type_histogram_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<const double> delta_row(
      std::uint32_t m) const noexcept {
    return std::span<const double>(type_delta_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<double> delta_row(std::uint32_t m) noexcept {
    return std::span<double>(type_delta_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }
  [[nodiscard]] std::span<double> floor_row(std::uint32_t m) noexcept {
    return std::span<double>(type_floor_)
        .subspan(m * ctx_->type_count, ctx_->type_count);
  }

  const EvalContext* ctx_;
  Partition partition_;
  // Per-gate boundary counts: how many of g's adjacency entries (logic
  // fanins and fanouts, with multiplicity) lie outside g's module; g is a
  // boundary gate iff its count is nonzero. They depend on membership
  // only, so module erasure leaves them valid. EvalContext bounds every
  // logic gate's degree to fit.
  std::vector<std::uint16_t> ext_;  // by GateId; inputs = 0

  // Per-module caches, indexed like partition_ modules. The per-type state
  // is SoA: one flat [module x type] matrix per quantity (stride
  // ctx_->type_count) instead of a vector-of-vectors, so a refresh sweeps
  // contiguous memory the compiler can vectorize, a probe's slot snapshots
  // are cheap span copies, and erase_module's slot swap is a copy_n instead
  // of a heap-handle shuffle.
  std::vector<est::ModuleCurrentProfile> profiles_;
  std::vector<double> leak_ua_;
  std::vector<double> cvr_ff_;
  std::vector<double> separation_;
  std::vector<std::uint32_t> type_histogram_;  // flat [module x type]

  // Lazily refreshed delay/area state (valid where !dirty_[m]). The
  // per-gate degradation factor is delta_row(module_of(g))[type_of(g)]
  // — served to the timing engine through a lookup, never materialised as
  // a per-gate array.
  std::vector<double> type_delta_;               // flat [module x type]
  std::vector<double> area_;                     // sensor area per module
  std::vector<double> settle_ps_;                // Delta(tau) per module
  std::vector<std::uint8_t> dirty_;              // per module
  bool any_dirty_ = true;
  // The certificate's cumulative ratio bound. type_floor_ (flat [module x
  // type]) is at most the certified factor of every gate of that slot and
  // type: the delta rows when the certificate is taken (+inf where a slot
  // lacks the type), lowered by move_gate to the source slot's floor.
  // slot_ratio_ is slot_ratio() of each slot (valid where !dirty_[m]).
  std::vector<double> type_floor_;
  std::vector<double> slot_ratio_;
  est::IncrementalTiming timing_;  // copies share the certificate
  double d_bic_ps_ = 0.0;
  double settle_max_ps_ = 0.0;

  /// derive_module_delay's memo: direct-mapped, kDelayMemoSlots entries,
  /// each holding one solve_module_delay result for every type. Hits need
  /// bit-equal operands, so a hit returns the bits a solve would. Copies
  /// carry it: about 12 KB at 18 cell types.
  static constexpr int kDelayMemoBits = 6;
  static constexpr std::size_t kDelayMemoSlots =
      std::size_t{1} << kDelayMemoBits;
  struct DelayMemoEntry {
    std::uint64_t idd_bits = 0;
    std::uint64_t cvr_bits = 0;
    std::uint32_t n_max = 0;  // 0: the slot is empty (n_max is at least 1)
    double area = 0.0;
    double settle = 0.0;
  };
  std::vector<DelayMemoEntry> delay_memo_;   // kDelayMemoSlots
  std::vector<double> delay_memo_rows_;      // flat [memo slot x type]

  /// A module slot's caches as they were before a probe touched it
  /// (its histogram/delta/floor rows live in ProbeScratch's flat matrices).
  struct SlotSnapshot {
    std::uint32_t slot = 0;
    est::ModuleCurrentProfile profile;
    double leak_ua = 0.0;
    double cvr_ff = 0.0;
    double separation = 0.0;
    double area = 0.0;
    double settle_ps = 0.0;
    double slot_ratio = 1.0;
    std::uint8_t dirty = 0;
  };

  struct ProbeScratch {
    // The first `slot_count` entries of `slots` are live; the rest keep
    // their buffers for reuse.
    std::vector<SlotSnapshot> slots;
    std::size_t slot_count = 0;
    std::vector<std::uint32_t> slot_hist;  // flat [snapshot x type]
    std::vector<double> slot_delta;        // flat [snapshot x type]
    std::vector<double> slot_floor;        // flat [snapshot x type]
    std::vector<std::uint8_t> touched;     // by module slot
  };
  CopyDroppedScratch<ProbeScratch> scratch_;
};

}  // namespace iddq::part
