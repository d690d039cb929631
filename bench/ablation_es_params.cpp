// Ablation: evolution-strategy control parameters (paper section 4.2).
//
// The ES is controlled by mu (parents), lambda (children/parent), chi
// (Monte-Carlo descendants/parent), kappa (max lifetime), m (step width) and
// epsilon (step-width variation). This bench sweeps each around the default
// configuration on c1908 and reports the converged cost and evaluation
// count, reproducing the paper's observation that "the convergence of this
// procedure depends on the start population and on the set of control
// parameters used".
#include <iostream>

#include "core/evolution.hpp"
#include "core/size_planner.hpp"
#include "library/cell_library.hpp"
#include "netlist/gen/iscas_profiles.hpp"
#include "partition/evaluator.hpp"
#include "report/table.hpp"

int main() {
  using namespace iddq;
  std::cout << "=== Ablation: ES control parameters (c1908) ===\n\n";

  const auto nl = netlist::gen::make_iscas_like("c1908");
  const auto library = lib::default_library();
  const part::EvalContext ctx(nl, library, elec::SensorSpec{},
                              part::CostWeights{});
  const auto plan = core::plan_module_size(ctx);

  const auto base = [] {
    core::EsParams p;
    p.mu = 8;
    p.lambda = 7;
    p.chi = 2;
    p.kappa = 8;
    p.m0 = 4;
    p.epsilon = 1.0;
    p.max_generations = 150;
    p.stall_generations = 40;
    return p;
  };

  struct Variant {
    const char* label;
    core::EsParams params;
  };
  std::vector<Variant> variants;
  variants.push_back({"default (8,7,2,k8,m4)", base()});
  {
    auto p = base();
    p.mu = 2;
    variants.push_back({"few parents (mu=2)", p});
  }
  {
    auto p = base();
    p.mu = 16;
    variants.push_back({"many parents (mu=16)", p});
  }
  {
    auto p = base();
    p.lambda = 2;
    variants.push_back({"few children (lambda=2)", p});
  }
  {
    auto p = base();
    p.chi = 0;
    variants.push_back({"no Monte-Carlo (chi=0)", p});
  }
  {
    auto p = base();
    p.chi = 6;
    variants.push_back({"heavy Monte-Carlo (chi=6)", p});
  }
  {
    auto p = base();
    p.kappa = 1;
    variants.push_back({"comma-selection (kappa=1)", p});
  }
  {
    auto p = base();
    p.kappa = 1000;
    variants.push_back({"plus-selection (kappa=inf)", p});
  }
  {
    auto p = base();
    p.m0 = 1;
    p.epsilon = 0.0;
    variants.push_back({"single-gate steps (m=1)", p});
  }
  {
    auto p = base();
    p.m0 = 32;
    variants.push_back({"large steps (m0=32)", p});
  }

  report::TextTable table(
      {"variant", "best cost", "gens", "evals", "K", "feasible"});
  core::OptimizerRequest request;
  request.ctx = &ctx;
  request.module_count = plan.module_count;
  request.seed = 42;
  for (const auto& v : variants) {
    core::OptimizerConfig config;
    config.es = v.params;
    const auto result = core::run_evolution(request, config);
    table.add_row({v.label, report::format_fixed(result.fitness.cost, 1),
                   std::to_string(result.iterations),
                   std::to_string(result.evaluations),
                   std::to_string(result.partition.module_count()),
                   result.fitness.feasible() ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout <<
      "\nreading: Monte-Carlo descendants (chi>0) and a finite lifetime\n"
      "(kappa) are the paper's devices against local minima; removing them\n"
      "or shrinking the population typically stalls at a higher cost.\n";
  return 0;
}
