#include "core/optimizer.hpp"

#include "core/size_planner.hpp"
#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace iddq::core {

const part::EvalContext& request_context(const OptimizerRequest& req) {
  require(req.ctx != nullptr, "optimizer request: EvalContext is required");
  return *req.ctx;
}

std::size_t request_module_count(const OptimizerRequest& req) {
  if (req.start) return req.start->module_count();
  if (req.module_count > 0) return req.module_count;
  return plan_module_size(request_context(req)).module_count;
}

part::Partition request_start(const OptimizerRequest& req) {
  if (req.start) return *req.start;
  Rng rng(req.seed);
  const part::EvalContext& ctx = request_context(req);
  return make_start_partition(ctx.nl, request_module_count(req), rng,
                              ctx.timing_graph.depths());
}

void report_outcome(const OptimizerRequest& req, const OptimizerOutcome& out) {
  if (req.on_progress)
    req.on_progress({out.method, out.iterations, out.evaluations, out.fitness});
}

}  // namespace iddq::core
