// Second-order gate-delay degradation model (paper section 3.2).
//
// With a BIC sensor in the ground path, a switching gate discharges its
// output capacitance C_g through its pull-down network (average ON
// resistance R_g) into the virtual rail, which is loaded by the parasitic
// capacitance C_s and tied to ground through the bypass switch R_s shared by
// the n(t) gates switching simultaneously:
//
//   C_g dV_out/dt  = -(V_out - V_rail) / R_g              (per gate)
//   C_s dV_rail/dt =  n (V_out - V_rail) / R_g - V_rail / R_s
//
// The paper's gate delay degradation factor is the ratio of 50%-crossing
// times:  delta(g, t) = t_50(R_s, C_s, n(t)) / t_50(R_s = 0), applied to the
// nominal delay as  D_BIC(g, t) = D(g) * delta(g, t).
//
// The 2x2 linear system is solved in closed form via its eigenvalues (both
// real and negative). The 50% crossing is located analytically: a
// safeguarded Newton iteration on the closed-form waveform converges to the
// crossing at machine precision, and a comparison-driven replay of the
// historical bracket-and-bisect refinement then reproduces the reference
// bisection's result BIT-FOR-BIT (each bisection decision is settled by
// comparing the midpoint against the analytic crossing; only midpoints
// inside a guard band around the crossing — the last couple of iterations —
// fall back to evaluating the waveform). Newton starts at the bracket's
// upper end, the quasi-static bound, whose v <= 0.5 evaluation the bracket
// already made (crossings sit about 1e-3 of it below), and stops on an
// iterate that hits v == 0.5 exactly instead of bisecting on: about 3.4
// Newton steps and 7.3 exp() calls per solve on the search workloads,
// replay included.
// t50_ps_bisect() keeps the plain bracket-and-bisect path callable as the
// bit-identity reference for tests and bench/perf_micro.cpp. Verified
// properties (see tests): t50_ps == t50_ps_bisect bit-for-bit across the
// operating range, delta >= 1, delta -> 1 as R_s -> 0, monotone
// non-decreasing in n and in R_s, and agreement with a direct RK4
// integration of the ODE system.
#pragma once

#include <cstdint>

namespace iddq::elec {

struct DelayModelInput {
  double rs_kohm = 0.0;  // bypass switch ON resistance
  double cs_ff = 0.0;    // virtual-rail parasitic capacitance
  double cg_ff = 1.0;    // switching gate's output capacitance
  double rg_kohm = 1.0;  // gate discharge resistance
  std::uint32_t n = 1;   // simultaneously switching gates n(t)
};

class DelayDegradationModel {
 public:
  /// Degradation factor delta >= 1 for the given operating point.
  [[nodiscard]] static double delta(const DelayModelInput& in);

  /// 50%-crossing time of V_out starting from VDD, in ps. Analytic
  /// crossing (Newton from the quasi-static bound) with a comparison-driven
  /// refinement replay; bit-identical to t50_ps_bisect at a fraction of
  /// its exp() count.
  [[nodiscard]] static double t50_ps(const DelayModelInput& in);

  /// Historical bracket-and-bisect 50%-crossing: doubles the quasi-static
  /// bound until the waveform falls below 50%, then bisects with up to 100
  /// waveform evaluations. Kept as the bit-identity reference for t50_ps
  /// (tests/electrical/test_delay_model.cpp pins t50_ps == t50_ps_bisect;
  /// bench/perf_micro.cpp measures the gap).
  [[nodiscard]] static double t50_ps_bisect(const DelayModelInput& in);

  /// Analytic output waveform V_out(t)/VDD (exposed for the RK4 cross-check
  /// tests and the transient-simulator validation).
  [[nodiscard]] static double v_out_norm(const DelayModelInput& in,
                                         double t_ps);
};

}  // namespace iddq::elec
