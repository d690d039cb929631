#include "partition/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "electrical/delay_model.hpp"
#include "estimators/delay_estimator.hpp"
#include "estimators/leakage.hpp"
#include "netlist/levelize.hpp"
#include "estimators/separation.hpp"
#include "estimators/test_time.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/math.hpp"
#include "support/units.hpp"

namespace iddq::part {

namespace {

/// Key for deduplicating (cg, rg) pairs into dense type indices.
struct CgRgKey {
  double cg;
  double rg;
  friend bool operator==(const CgRgKey&, const CgRgKey&) = default;
};
/// support/hash.hpp combiner over the IEEE bit patterns (-0.0 normalized),
/// so keys that compare equal always hash equal and a (cg, rg) pair cannot
/// split into two type indices.
struct CgRgHash {
  std::size_t operator()(const CgRgKey& k) const noexcept {
    Hash64 h;
    h.mix_double(k.cg);
    h.mix_double(k.rg);
    return static_cast<std::size_t>(h.value());
  }
};

}  // namespace

EvalContext::EvalContext(const netlist::Netlist& netlist,
                         const lib::CellLibrary& library,
                         elec::SensorSpec sensor_spec, CostWeights w,
                         std::uint32_t rho, double grid_bin_ps)
    : nl(netlist),
      cells(lib::bind_cells(netlist, library)),
      transition_times(netlist, cells, grid_bin_ps),
      oracle(netlist, rho),
      timing_graph(netlist, cells),
      settling(elec::SettlingModel::calibrate(sensor_spec.t_detect_ps)),
      sensor(sensor_spec),
      weights(w) {
  sensor.validate();
  // Dense (cg, rg) type indexing for the delay-anchor cache.
  type_of.assign(nl.gate_count(), 0);
  std::unordered_map<CgRgKey, std::uint16_t, CgRgHash> index;
  for (const netlist::GateId id : nl.logic_gates()) {
    const CgRgKey key{cells[id].cout_ff, cells[id].rg_kohm};
    const auto [it, inserted] = index.emplace(
        key, static_cast<std::uint16_t>(type_cg_ff.size()));
    if (inserted) {
      type_cg_ff.push_back(key.cg);
      type_rg_kohm.push_back(key.rg);
    }
    type_of[id] = it->second;
    // The boundary counts are 16-bit.
    const auto& gate = nl.gate(id);
    if (gate.fanins.size() + gate.fanouts.size() >
        std::numeric_limits<std::uint16_t>::max())
      throw Error("evaluator: gate '" + gate.name +
                  "' has more than 65535 connections");
  }
  type_count = type_cg_ff.size();
  d_nominal_ps = est::nominal_critical_path_ps(nl, cells);
  leak_cap_ua = elec::leakage_cap_ua(sensor);
}

PartitionEvaluator::PartitionEvaluator(const EvalContext& ctx,
                                       Partition partition)
    : ctx_(&ctx),
      partition_(std::move(partition)),
      timing_(ctx.timing_graph),
      delay_memo_(kDelayMemoSlots),
      delay_memo_rows_(kDelayMemoSlots * ctx.type_count, 1.0) {
  require(partition_.covers(ctx_->nl),
          "evaluator: partition must cover all logic gates with no empty "
          "module");
  rebuild_all();
}

void PartitionEvaluator::rebuild_all() {
  const std::size_t k = partition_.module_count();
  profiles_.assign(k, est::ModuleCurrentProfile(
                          ctx_->transition_times.grid_size()));
  leak_ua_.assign(k, 0.0);
  cvr_ff_.assign(k, 0.0);
  separation_.assign(k, 0.0);
  type_histogram_.assign(k * ctx_->type_count, 0);
  std::vector<std::uint32_t> module_of(partition_.gate_count(), kUnassigned);
  for (netlist::GateId g = 0; g < partition_.gate_count(); ++g)
    module_of[g] = partition_.module_of(g);
  for (std::uint32_t m = 0; m < k; ++m) {
    const auto hist = hist_row(m);
    for (const netlist::GateId g : partition_.module(m)) {
      const auto& cell = ctx_->cells[g];
      profiles_[m].add_gate(ctx_->transition_times.at(g), cell.ipeak_ua);
      leak_ua_[m] += units::na_to_ua(cell.ileak_na);
      cvr_ff_[m] += cell.cvr_ff;
      hist[ctx_->type_of[g]]++;
    }
    separation_[m] = est::module_separation(ctx_->oracle, partition_.module(m),
                                            m, module_of);
  }
  // A logic-to-logic connection is a fanout entry of its driver and a
  // fanin entry of its sink: count a crossing one on both sides.
  ext_.assign(partition_.gate_count(), 0);
  for (const netlist::GateId g : ctx_->nl.logic_gates())
    for (const netlist::GateId f : ctx_->nl.gate(g).fanouts)
      if (module_of[f] != module_of[g]) {
        ++ext_[g];
        ++ext_[f];
      }
  type_delta_.assign(k * ctx_->type_count, 1.0);
  type_floor_.assign(k * ctx_->type_count,
                     std::numeric_limits<double>::infinity());
  slot_ratio_.assign(k, 1.0);
  area_.assign(k, 0.0);
  settle_ps_.assign(k, 0.0);
  dirty_.assign(k, 1);
  any_dirty_ = true;
}

void PartitionEvaluator::mark_dirty(std::uint32_t m) {
  dirty_[m] = 1;
  any_dirty_ = true;
}

void PartitionEvaluator::move_gate(netlist::GateId g, std::uint32_t target) {
  const std::uint32_t src = partition_.module_of(g);
  IDDQ_ASSERT(src != kUnassigned);
  IDDQ_ASSERT(target < partition_.module_count());
  if (src == target) return;
  // Every adjacency entry between g and a neighbour f has a mirror entry
  // on f's side (fanin lists and fanout lists agree with multiplicity):
  // one in src now crosses the cut, one in the target no longer does.
  // Inputs are in no module and never count.
  const auto update = [&](netlist::GateId f) {
    const std::uint32_t fm = partition_.module_of(f);
    if (fm == src) {
      ++ext_[f];
      ++ext_[g];
    } else if (fm == target) {
      --ext_[f];
      --ext_[g];
    }
  };
  const auto& gate = ctx_->nl.gate(g);
  for (const netlist::GateId f : gate.fanins) update(f);
  for (const netlist::GateId f : gate.fanouts) update(f);
  apply_move(g, target);
}

void PartitionEvaluator::apply_move(netlist::GateId g, std::uint32_t target) {
  const std::uint32_t src = partition_.module_of(g);
  IDDQ_ASSERT(src != kUnassigned);
  IDDQ_ASSERT(target < partition_.module_count());
  if (src == target) return;

  const auto& cell = ctx_->cells[g];
  // Separation sums are updated while module_of still reflects the old
  // assignment (g not yet in target, still in src); the near-list scan is
  // inlined here to avoid materialising a module_of vector per move.
  const double rho = static_cast<double>(ctx_->oracle.rho());
  double sum_src = static_cast<double>(partition_.module_size(src) - 1) * rho;
  double sum_dst = static_cast<double>(partition_.module_size(target)) * rho;
  for (const auto& [neighbor, distance] : ctx_->oracle.near(g)) {
    const std::uint32_t nm = partition_.module_of(neighbor);
    if (nm == src)
      sum_src -= rho - static_cast<double>(distance);
    else if (nm == target)
      sum_dst -= rho - static_cast<double>(distance);
  }
  separation_[src] -= sum_src;
  separation_[target] += sum_dst;

  profiles_[src].remove_gate(ctx_->transition_times.at(g), cell.ipeak_ua);
  profiles_[target].add_gate(ctx_->transition_times.at(g), cell.ipeak_ua);
  leak_ua_[src] -= units::na_to_ua(cell.ileak_na);
  leak_ua_[target] += units::na_to_ua(cell.ileak_na);
  cvr_ff_[src] -= cell.cvr_ff;
  cvr_ff_[target] += cell.cvr_ff;
  const std::uint16_t type = ctx_->type_of[g];
  IDDQ_ASSERT(hist_row(src)[type] > 0);
  hist_row(src)[type]--;
  hist_row(target)[type]++;
  // g's certified factor is at least its old slot's floor.
  double& tgt_floor = floor_row(target)[type];
  tgt_floor = std::min(tgt_floor, floor_row(src)[type]);

  // A move dirties exactly its two endpoint modules; erase_module below
  // carries the flags through the slot swap.
  mark_dirty(src);
  mark_dirty(target);

  partition_.move(g, target);
  if (partition_.module_size(src) == 0) erase_module(src);
}

void PartitionEvaluator::boundary(std::uint32_t m,
                                  std::vector<netlist::GateId>& out) const {
  out.clear();
  for (const netlist::GateId g : partition_.module(m))
    if (ext_[g] != 0) out.push_back(g);
}

void PartitionEvaluator::erase_module(std::uint32_t m) {
  const std::uint32_t moved_from = partition_.erase_empty_module(m);
  const std::uint32_t last = static_cast<std::uint32_t>(profiles_.size() - 1);
  IDDQ_ASSERT(moved_from == last);
  if (m != last) {
    profiles_[m] = std::move(profiles_[last]);
    leak_ua_[m] = leak_ua_[last];
    cvr_ff_[m] = cvr_ff_[last];
    separation_[m] = separation_[last];
    const auto last_hist = hist_row(last);
    std::copy(last_hist.begin(), last_hist.end(), hist_row(m).begin());
    const auto last_row = delta_row(last);
    std::copy(last_row.begin(), last_row.end(), delta_row(m).begin());
    const auto last_floor = floor_row(last);
    std::copy(last_floor.begin(), last_floor.end(), floor_row(m).begin());
    slot_ratio_[m] = slot_ratio_[last];
    area_[m] = area_[last];
    settle_ps_[m] = settle_ps_[last];
    dirty_[m] = dirty_[last];
  }
  profiles_.pop_back();
  leak_ua_.pop_back();
  cvr_ff_.pop_back();
  separation_.pop_back();
  type_histogram_.resize(last * ctx_->type_count);
  type_delta_.resize(last * ctx_->type_count);
  type_floor_.resize(last * ctx_->type_count);
  slot_ratio_.pop_back();
  area_.pop_back();
  settle_ps_.pop_back();
  dirty_.pop_back();
}

double PartitionEvaluator::module_rs_kohm(std::uint32_t m) const {
  return elec::sensor_rs_kohm(ctx_->sensor, profiles_[m].max_current_ua());
}

double PartitionEvaluator::module_cs_ff(std::uint32_t m) const {
  return cvr_ff_[m] + ctx_->sensor.c_sensor_ff;
}

double PartitionEvaluator::violation() const {
  double v = 0.0;
  for (const double leak : leak_ua_) {
    if (leak > ctx_->leak_cap_ua)
      v += (leak - ctx_->leak_cap_ua) / ctx_->leak_cap_ua;
  }
  return v;
}

void PartitionEvaluator::derive_module_delay(
    double idd_max_ua, std::uint32_t max_switching, double cvr_ff,
    std::span<const std::uint32_t> histogram, std::span<double> type_delta_row,
    double& area, double& settle) {
  const std::size_t types = ctx_->type_count;
  IDDQ_ASSERT(histogram.size() == types && type_delta_row.size() == types);
  const std::uint64_t idd_bits = std::bit_cast<std::uint64_t>(idd_max_ua);
  const std::uint64_t cvr_bits = std::bit_cast<std::uint64_t>(cvr_ff);
  const std::uint32_t n_max = std::max<std::uint32_t>(max_switching, 1);
  Hash64 h;
  h.mix_u64(idd_bits);
  h.mix_u64(cvr_bits);
  h.mix_u64(n_max);
  // FNV's low bits see only the low bits of each byte; take the top ones.
  const std::size_t slot = h.value() >> (64 - kDelayMemoBits);
  DelayMemoEntry& entry = delay_memo_[slot];
  const auto row =
      std::span<double>(delay_memo_rows_).subspan(slot * types, types);
  if (entry.n_max != n_max || entry.idd_bits != idd_bits ||
      entry.cvr_bits != cvr_bits) {
    solve_module_delay(idd_max_ua, n_max, cvr_ff, row, entry.area,
                       entry.settle);
    entry.idd_bits = idd_bits;
    entry.cvr_bits = cvr_bits;
    entry.n_max = n_max;
  }
  for (std::size_t t = 0; t < types; ++t)
    type_delta_row[t] = histogram[t] == 0 ? 1.0 : row[t];
  area = entry.area;
  settle = entry.settle;
}

void PartitionEvaluator::solve_module_delay(double idd_max_ua,
                                            std::uint32_t max_switching,
                                            double cvr_ff,
                                            std::span<double> type_delta_row,
                                            double& area,
                                            double& settle) const {
  // Worst-case degradation per (module, cell type): every gate of the
  // module is charged the module's peak simultaneity n_max,m — the paper's
  // pessimistic treatment of the time-grid functions delta(g, t). Note the
  // self-normalisation: with R_s = r / iDD_max and iDD_max ~ n_max * ipeak,
  // the product n_max * R_s ~ r / ipeak is partition-invariant, which is why
  // the paper's Table 1 shows (and our benches reproduce) essentially equal
  // delay overheads for different partitioning methods at equal K.
  const double rs = elec::sensor_rs_kohm(ctx_->sensor, idd_max_ua);
  const double cs = cvr_ff + ctx_->sensor.c_sensor_ff;
  const std::uint32_t n_max = std::max<std::uint32_t>(max_switching, 1);
  IDDQ_ASSERT(type_delta_row.size() == ctx_->type_count);
  for (std::size_t t = 0; t < ctx_->type_count; ++t) {
    elec::DelayModelInput in;
    in.rs_kohm = rs;
    in.cs_ff = cs;
    in.cg_ff = ctx_->type_cg_ff[t];
    in.rg_kohm = ctx_->type_rg_kohm[t];
    in.n = n_max;
    type_delta_row[t] = elec::DelayDegradationModel::delta(in);
  }
  area = elec::sensor_area(ctx_->sensor, rs);
  settle = ctx_->settling.delta_ps(elec::sensor_tau_ps(rs, cs), idd_max_ua,
                                   ctx_->sensor.iddq_th_ua);
}

void PartitionEvaluator::derive_dirty_modules() {
  for (std::uint32_t m = 0; m < partition_.module_count(); ++m) {
    if (!dirty_[m]) continue;
    derive_module_delay(profiles_[m].max_current_ua(),
                        profiles_[m].max_switching(), cvr_ff_[m], hist_row(m),
                        delta_row(m), area_[m], settle_ps_[m]);
    if (timing_.certified())  // the floors are meaningless otherwise
      slot_ratio_[m] = slot_ratio(hist_row(m), delta_row(m), floor_row(m));
  }
}

void PartitionEvaluator::refresh() {
  if (!any_dirty_) return;  // cached scalars stay valid on a clean state
  derive_dirty_modules();
  const auto factor = [this](netlist::GateId g) { return gate_factor(g); };
  // A held certificate answers from the near set when the cumulative
  // ratio bound still lets it vouch for the new state; otherwise the full
  // pass recomputes every arrival. Bit-identical either way: both are the
  // same pure function of the same factors.
  if (timing_.certified() &&
      timing_.commit_certified(
          *std::max_element(slot_ratio_.begin(), slot_ratio_.end()),
          factor)) {
    d_bic_ps_ = timing_.worst_ps();
  } else {
    d_bic_ps_ = timing_.rebuild(factor);
  }
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  any_dirty_ = false;
  settle_max_ps_ = 0.0;
  for (const double settle : settle_ps_)
    settle_max_ps_ = std::max(settle_max_ps_, settle);
}

double PartitionEvaluator::d_bic_ps() {
  refresh();
  return d_bic_ps_;
}

double PartitionEvaluator::total_sensor_area() {
  refresh();
  double area = 0.0;
  for (std::uint32_t m = 0; m < partition_.module_count(); ++m)
    area += area_[m];
  return area;
}

Costs PartitionEvaluator::assemble_costs(double d_bic_ps,
                                         double settle_max_ps) const {
  Costs c;
  double area = 0.0;
  for (const double a : area_) area += a;
  c.c1 = std::log(std::max(area, 1.0));
  c.c2 = (d_bic_ps - ctx_->d_nominal_ps) / ctx_->d_nominal_ps;
  double s_total = 0.0;
  for (const double s : separation_) s_total += s;
  c.c3 = std::log(std::max(s_total, 1.0));
  c.c4 = est::test_time_overhead(ctx_->d_nominal_ps, d_bic_ps,
                                 settle_max_ps);
  c.c5 = static_cast<double>(partition_.module_count());
  return c;
}

Costs PartitionEvaluator::costs() {
  refresh();
  return assemble_costs(d_bic_ps_, settle_max_ps_);
}

Fitness PartitionEvaluator::fitness() {
  return Fitness{violation(), costs().total(ctx_->weights)};
}

MoveProbe PartitionEvaluator::probe_move(netlist::GateId g,
                                         std::uint32_t target) {
  const std::uint32_t src = partition_.module_of(g);
  IDDQ_ASSERT(src != kUnassigned && src != target);
  require(partition_.module_size(src) >= 2,
          "probe_move: move would empty its source module (commit such "
          "moves with move_gate)");
  const Move move{g, target};
  return probe_moves({&move, 1});
}

void PartitionEvaluator::snapshot_slot(std::uint32_t m) {
  ProbeScratch& scratch = scratch_.value;
  if (scratch.touched[m]) return;
  scratch.touched[m] = 1;
  if (scratch.slot_count == scratch.slots.size()) scratch.slots.emplace_back();
  SlotSnapshot& snap = scratch.slots[scratch.slot_count++];
  snap.slot = m;
  snap.profile = profiles_[m];  // reuses the snapshot's buffers
  snap.leak_ua = leak_ua_[m];
  snap.cvr_ff = cvr_ff_[m];
  snap.separation = separation_[m];
  snap.area = area_[m];
  snap.settle_ps = settle_ps_[m];
  snap.dirty = dirty_[m];
  snap.slot_ratio = slot_ratio_[m];
  const auto hist = hist_row(m);
  scratch.slot_hist.insert(scratch.slot_hist.end(), hist.begin(), hist.end());
  const auto row = delta_row(m);
  scratch.slot_delta.insert(scratch.slot_delta.end(), row.begin(), row.end());
  const auto floor = floor_row(m);
  scratch.slot_floor.insert(scratch.slot_floor.end(), floor.begin(),
                            floor.end());
}

void PartitionEvaluator::restore_slots(std::size_t module_count) {
  ProbeScratch& scratch = scratch_.value;
  const std::size_t types = ctx_->type_count;
  // Erasures only ever shrink the arrays, and every slot they dropped was
  // snapshotted, so regrowing and writing the snapshots back restores
  // every slot that differs.
  profiles_.resize(module_count);
  leak_ua_.resize(module_count);
  cvr_ff_.resize(module_count);
  separation_.resize(module_count);
  type_histogram_.resize(module_count * types);
  type_delta_.resize(module_count * types);
  type_floor_.resize(module_count * types);
  slot_ratio_.resize(module_count);
  area_.resize(module_count);
  settle_ps_.resize(module_count);
  dirty_.resize(module_count);
  for (std::size_t i = 0; i < scratch.slot_count; ++i) {
    SlotSnapshot& snap = scratch.slots[i];
    const std::uint32_t m = snap.slot;
    std::swap(profiles_[m], snap.profile);
    leak_ua_[m] = snap.leak_ua;
    cvr_ff_[m] = snap.cvr_ff;
    separation_[m] = snap.separation;
    area_[m] = snap.area;
    settle_ps_[m] = snap.settle_ps;
    dirty_[m] = snap.dirty;
    slot_ratio_[m] = snap.slot_ratio;
    std::copy_n(scratch.slot_hist.begin() + i * types, types,
                hist_row(m).begin());
    std::copy_n(scratch.slot_delta.begin() + i * types, types,
                delta_row(m).begin());
    std::copy_n(scratch.slot_floor.begin() + i * types, types,
                floor_row(m).begin());
    scratch.touched[m] = 0;
  }
  scratch.slot_count = 0;
  scratch.slot_hist.clear();
  scratch.slot_delta.clear();
  scratch.slot_floor.clear();
}

double PartitionEvaluator::slot_ratio(std::span<const std::uint32_t> hist,
                                      std::span<const double> delta,
                                      std::span<const double> floors) {
  // A gate of type t in the slot had a certified factor of at least
  // floors[t] and has delta[t] now. Types the slot lacks are skipped; the
  // floors of the ones it holds are finite.
  double ratio = 1.0;
  for (std::size_t t = 0; t < hist.size(); ++t) {
    if (hist[t] == 0) continue;
    IDDQ_ASSERT(std::isfinite(floors[t]));
    ratio = std::max(ratio, delta[t] / floors[t]);
  }
  return ratio;
}

void PartitionEvaluator::certify() {
  const auto factor = [this](netlist::GateId x) { return gate_factor(x); };
  refresh();
  if (timing_.certified()) return;
  // Stale arrivals (a copy, or commits the certificate answered) are
  // rebuilt bit-identically first.
  if (!timing_.valid()) d_bic_ps_ = timing_.rebuild(factor);
  timing_.certify(factor);
  // Every gate's certified factor is its slot's delta row entry.
  for (std::size_t i = 0; i < type_floor_.size(); ++i)
    type_floor_[i] = type_histogram_[i] != 0
                         ? type_delta_[i]
                         : std::numeric_limits<double>::infinity();
  std::fill(slot_ratio_.begin(), slot_ratio_.end(), 1.0);
}

MoveProbe PartitionEvaluator::probe_moves(std::span<const Move> moves) {
  // Settle lazy module state first so the moves below dirty exactly the
  // slots they snapshot, and make sure a certificate is held. A copy (a
  // materialized ES survivor) shares its parent's and re-validates it in
  // that refresh.
  certify();
  const auto factor = [this](netlist::GateId x) { return gate_factor(x); };
  const std::size_t k_before = partition_.module_count();
  ProbeScratch& scratch = scratch_.value;
  scratch.touched.resize(k_before, 0);

  partition_.begin_journal();
  for (const Move& mv : moves) {
    const std::uint32_t src = partition_.module_of(mv.gate);
    IDDQ_ASSERT(src != kUnassigned);
    IDDQ_ASSERT(mv.target < partition_.module_count());
    if (src == mv.target) continue;  // move_gate's no-op
    snapshot_slot(src);
    snapshot_slot(mv.target);
    // An emptying move erases src by swapping the last slot into it.
    if (partition_.module_size(src) == 1)
      snapshot_slot(
          static_cast<std::uint32_t>(partition_.module_count() - 1));
    apply_move(mv.gate, mv.target);
  }

  // Score exactly what the copy's fitness()/costs() would: its refresh
  // rederives the dirty (= snapshotted) modules and takes a full timing
  // pass, which the certificate reproduces bit for bit from the
  // near-critical gates. The rederivation also bounds the touched slots'
  // ratios; an erasure only moves a touched slot's state.
  derive_dirty_modules();
  const double d_bic = timing_.probe_certified(
      *std::max_element(slot_ratio_.begin(), slot_ratio_.end()), factor);
  double settle_max = 0.0;
  for (const double settle : settle_ps_)
    settle_max = std::max(settle_max, settle);
  const Costs c = assemble_costs(d_bic, settle_max);
  const MoveProbe probe{Fitness{violation(), c.total(ctx_->weights)}, c};

  partition_.rollback();
  restore_slots(k_before);
  any_dirty_ = false;
  return probe;
}

ModuleReport PartitionEvaluator::module_report(std::uint32_t m) {
  IDDQ_ASSERT(m < partition_.module_count());
  ModuleReport r;
  r.gates = partition_.module_size(m);
  r.idd_max_ua = profiles_[m].max_current_ua();
  r.leakage_ua = leak_ua_[m];
  r.discriminability =
      est::discriminability(ctx_->sensor.iddq_th_ua, leak_ua_[m]);
  r.rs_kohm = module_rs_kohm(m);
  r.cs_ff = module_cs_ff(m);
  r.tau_ps = elec::sensor_tau_ps(r.rs_kohm, r.cs_ff);
  r.area = elec::sensor_area(ctx_->sensor, r.rs_kohm);
  r.separation = separation_[m];
  r.rail_perturbation_mv = elec::rail_perturbation_mv(r.rs_kohm, r.idd_max_ua);
  r.settle_ps =
      ctx_->settling.delta_ps(r.tau_ps, r.idd_max_ua, ctx_->sensor.iddq_th_ua);
  return r;
}

void PartitionEvaluator::self_check() {
  refresh();
  PartitionEvaluator fresh(*ctx_, partition_);
  require(fresh.ext_ == ext_, "self_check: boundary count mismatch");
  for (std::uint32_t m = 0; m < partition_.module_count(); ++m) {
    // The incremental max state first: every tournament-tree node must be
    // consistent with its leaves and the O(1) maxima with the O(grid)
    // reference scans.
    profiles_[m].self_check();
    // Switching counts are integers and must match exactly; the running
    // current sums accumulate floating-point rounding in a different order
    // than a fresh summation, so they are compared with a tolerance.
    const auto fresh_sw = fresh.profiles_[m].switching();
    const auto inc_sw = profiles_[m].switching();
    require(std::equal(fresh_sw.begin(), fresh_sw.end(), inc_sw.begin(),
                       inc_sw.end()),
            "self_check: switching-count profile mismatch");
    const auto fresh_i = fresh.profiles_[m].current_ua();
    const auto inc_i = profiles_[m].current_ua();
    for (std::size_t t = 0; t < fresh_i.size(); ++t)
      require(math::rel_diff(fresh_i[t], inc_i[t]) < 1e-9,
              "self_check: current profile mismatch");
    require(math::rel_diff(fresh.leak_ua_[m], leak_ua_[m]) < 1e-9,
            "self_check: leakage mismatch");
    require(math::rel_diff(fresh.cvr_ff_[m], cvr_ff_[m]) < 1e-9,
            "self_check: cvr mismatch");
    require(math::rel_diff(fresh.separation_[m], separation_[m]) < 1e-9,
            "self_check: separation mismatch");
    const auto fresh_hist = fresh.hist_row(m);
    const auto inc_hist = hist_row(m);
    require(std::equal(fresh_hist.begin(), fresh_hist.end(), inc_hist.begin(),
                       inc_hist.end()),
            "self_check: type histogram mismatch");
  }
  // Lazy delay state: the cached anchors/area/settling are pure functions
  // of the (possibly residue-carrying) running sums checked above, so
  // against *those* sums they must be bit-exact — and so must the
  // incrementally maintained critical path against a full pass over the
  // same per-gate factors.
  // The reference derivation bypasses the delay memo, so a memo row that
  // differs from a fresh solve fails here.
  std::vector<double> row(ctx_->type_count);
  double area = 0.0;
  double settle = 0.0;
  double settle_max = 0.0;
  std::vector<double> factors(ctx_->nl.gate_count(), 1.0);
  for (std::uint32_t m = 0; m < partition_.module_count(); ++m) {
    solve_module_delay(profiles_[m].max_current_ua(),
                       profiles_[m].max_switching(), cvr_ff_[m], row, area,
                       settle);
    const auto hist = hist_row(m);
    for (std::size_t t = 0; t < ctx_->type_count; ++t)
      if (hist[t] == 0) row[t] = 1.0;
    const auto cached = delta_row(m);
    require(std::equal(row.begin(), row.end(), cached.begin(), cached.end()),
            "self_check: type-delta row mismatch");
    require(area == area_[m], "self_check: sensor-area cache mismatch");
    require(settle == settle_ps_[m], "self_check: settling cache mismatch");
    settle_max = std::max(settle_max, settle);
    for (const netlist::GateId g : partition_.module(m))
      factors[g] = row[ctx_->type_of[g]];
  }
  require(settle_max == settle_max_ps_, "self_check: settle-max mismatch");
  require(est::degraded_critical_path_ps(ctx_->nl, ctx_->cells, factors) ==
              d_bic_ps_,
          "self_check: incremental critical path diverged from full pass");
}

}  // namespace iddq::part
