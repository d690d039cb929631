#include "electrical/delay_model.hpp"

#include <cmath>

#include "support/error.hpp"

namespace iddq::elec {

namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kTiny = 1e-12;

struct Waveform {
  // v_out(t) = alpha * exp(lambda1 * t) + beta * expl(lambda2 * t)
  double lambda1 = 0.0;
  double lambda2 = 0.0;
  double alpha = 0.0;
  double beta = 0.0;

  [[nodiscard]] double at(double t_ps) const {
    return alpha * std::exp(lambda1 * t_ps) + beta * std::exp(lambda2 * t_ps);
  }
};

Waveform solve(const DelayModelInput& in) {
  const double a = 1.0 / (in.rg_kohm * in.cg_ff);
  const double b = static_cast<double>(in.n) / (in.rg_kohm * in.cs_ff);
  const double c = 1.0 / (in.rs_kohm * in.cs_ff);
  const double tr = -(a + b + c);
  const double det = a * c;
  // disc = (a-c)^2 + b^2 + 2ab + 2bc > 0: roots are real and distinct.
  const double disc = tr * tr - 4.0 * det;
  IDDQ_ASSERT(disc > 0.0);
  const double root = std::sqrt(disc);
  Waveform w;
  w.lambda2 = (tr - root) / 2.0;  // fast pole
  // Slow pole. When 4*det << tr^2 (tiny Cs against a large n*Rs/Rg) the
  // sum tr + root cancels, down to 0, and the waveform would never fall;
  // there the product form lambda1 * lambda2 = det is exact. Everywhere
  // else the sum stays, so the delays of every realistic sensor keep
  // their bits.
  w.lambda1 = 4.0 * det < 1e-8 * tr * tr ? det / w.lambda2
                                         : (tr + root) / 2.0;
  // v_out(0) = 1, v_out'(0) = a * (v_rail(0) - v_out(0)) = -a.
  w.alpha = (-a - w.lambda2) / (w.lambda1 - w.lambda2);
  w.beta = 1.0 - w.alpha;
  return w;
}

void validate(const DelayModelInput& in) {
  require(in.cg_ff > 0.0 && in.rg_kohm > 0.0,
          "delay model: Cg and Rg must be positive");
  require(in.rs_kohm >= 0.0 && in.cs_ff >= 0.0,
          "delay model: Rs and Cs must be non-negative");
  require(in.n >= 1, "delay model: n must be >= 1");
}

/// The bracket's upper end and the waveform's two exponentials there.
struct Bracket {
  double hi = 0.0;
  double e1 = 0.0;  // exp(lambda1 * hi)
  double e2 = 0.0;  // exp(lambda2 * hi)
};

/// Brackets the 50% crossing. The static-divider delay is the quasi-static
/// bound; double past it defensively for extreme pole splits. Returns the
/// upper bound (the lower bound is always 0) with the exponentials of its
/// v(hi) <= 0.5 evaluation, which Newton reuses as its first iterate.
Bracket bracket_hi(const Waveform& w, double quasi_static_ps) {
  Bracket b{quasi_static_ps};
  int guard = 0;
  for (;;) {
    b.e1 = std::exp(w.lambda1 * b.hi);
    b.e2 = std::exp(w.lambda2 * b.hi);
    if (!(w.alpha * b.e1 + w.beta * b.e2 > 0.5) || guard++ >= 64) break;
    b.hi *= 2.0;
  }
  IDDQ_ASSERT(w.alpha * b.e1 + w.beta * b.e2 <= 0.5);
  return b;
}

/// Safeguarded Newton on the analytic waveform: solves v(t) = 0.5 on
/// (0, hi] to ~machine precision. The waveform is strictly decreasing
/// (v'(0) = -a < 0 and the faster-decaying positive term of v' can never
/// overtake the slower negative one), so the bracket [blo, bhi] shrinks
/// monotonically and any Newton step that escapes it falls back to its
/// midpoint. The iteration starts at hi, the quasi-static bound, where
/// v(hi) <= 0.5 is already known (crossings sit about 1e-3 * hi below it),
/// and stops on an iterate with v == 0.5 exactly: its zero step would
/// land on bhi and fall back to bisection. Returns false when the
/// iteration fails to settle (the caller then evaluates every refinement
/// decision directly).
bool newton_crossing(const Waveform& w, const Bracket& b, double& t_cross) {
  const double hi = b.hi;
  double blo = 0.0;
  double bhi = hi;
  double t = hi;
  double e1 = b.e1;
  double e2 = b.e2;
  for (int i = 0; i < 80; ++i) {
    const double v = w.alpha * e1 + w.beta * e2;
    if (v == 0.5) {
      t_cross = t;
      return true;
    }
    const double dv =
        w.alpha * w.lambda1 * e1 + w.beta * w.lambda2 * e2;
    if (v > 0.5)
      blo = t;
    else
      bhi = t;
    double next = dv < 0.0 ? t - (v - 0.5) / dv : 0.5 * (blo + bhi);
    if (!(next > blo && next < bhi)) next = 0.5 * (blo + bhi);
    if (std::abs(next - t) <= 1e-15 * hi) {
      t_cross = next;
      return true;
    }
    t = next;
    e1 = std::exp(w.lambda1 * t);
    e2 = std::exp(w.lambda2 * t);
  }
  return false;
}

/// The historical refinement, replayed: identical bracket, identical
/// midpoint sequence, identical termination — but each "is the waveform
/// still above 50% at mid?" decision is settled by comparing mid against
/// the analytic crossing instead of evaluating two exponentials. Only
/// midpoints inside a guard band around the crossing (where floating-point
/// noise in the waveform could flip the comparison) evaluate the waveform
/// directly, which is what makes the replay bit-exact: outside the band
/// the waveform's strict monotonicity makes the comparison and the
/// evaluation provably agree, inside the band the evaluation IS the
/// decision. The band is ~1e-13 * hi wide — two orders above the combined
/// Newton/waveform noise floor (~1e-15 * hi) and an order below the
/// bisection's own 1e-12 * hi stopping width — so at most the last couple
/// of midpoints land in it.
double refine_replay(const Waveform& w, double hi, double t_cross,
                     bool have_cross) {
  const double margin = 1e-13 * hi;
  double lo = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    bool above;
    if (have_cross && mid < t_cross - margin)
      above = true;
    else if (have_cross && mid > t_cross + margin)
      above = false;
    else
      above = w.at(mid) > 0.5;
    if (above)
      lo = mid;
    else
      hi = mid;
    if ((hi - lo) <= 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double DelayDegradationModel::t50_ps(const DelayModelInput& in) {
  validate(in);
  const double t50_nominal = kLn2 * in.rg_kohm * in.cg_ff;
  if (in.rs_kohm <= kTiny) return t50_nominal;  // rail pinned to ground
  const double k = static_cast<double>(in.n) * in.rs_kohm / in.rg_kohm;
  if (in.cs_ff <= kTiny) {
    // No rail capacitance: the rail is a static divider and the gate sees a
    // single pole with tau = Rg*Cg*(1 + n*Rs/Rg).
    return t50_nominal * (1.0 + k);
  }
  const Waveform w = solve(in);
  const Bracket b = bracket_hi(w, t50_nominal * (1.0 + k));
  double t_cross = 0.0;
  const bool have_cross = newton_crossing(w, b, t_cross);
  return refine_replay(w, b.hi, t_cross, have_cross);
}

double DelayDegradationModel::t50_ps_bisect(const DelayModelInput& in) {
  validate(in);
  const double t50_nominal = kLn2 * in.rg_kohm * in.cg_ff;
  if (in.rs_kohm <= kTiny) return t50_nominal;  // rail pinned to ground
  const double k = static_cast<double>(in.n) * in.rs_kohm / in.rg_kohm;
  if (in.cs_ff <= kTiny) return t50_nominal * (1.0 + k);
  const Waveform w = solve(in);
  double lo = 0.0;
  double hi = bracket_hi(w, t50_nominal * (1.0 + k)).hi;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (w.at(mid) > 0.5)
      lo = mid;
    else
      hi = mid;
    if ((hi - lo) <= 1e-12 * hi) break;
  }
  return 0.5 * (lo + hi);
}

double DelayDegradationModel::delta(const DelayModelInput& in) {
  validate(in);
  const double t50_nominal = kLn2 * in.rg_kohm * in.cg_ff;
  const double d = t50_ps(in) / t50_nominal;
  // Numerical floor: the degraded gate is never faster than nominal.
  return d < 1.0 ? 1.0 : d;
}

double DelayDegradationModel::v_out_norm(const DelayModelInput& in,
                                         double t_ps) {
  validate(in);
  require(t_ps >= 0.0, "delay model: time must be non-negative");
  if (in.rs_kohm <= kTiny)
    return std::exp(-t_ps / (in.rg_kohm * in.cg_ff));
  if (in.cs_ff <= kTiny) {
    const double k = static_cast<double>(in.n) * in.rs_kohm / in.rg_kohm;
    return std::exp(-t_ps / (in.rg_kohm * in.cg_ff * (1.0 + k)));
  }
  return solve(in).at(t_ps);
}

}  // namespace iddq::elec
