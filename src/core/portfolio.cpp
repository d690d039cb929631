#include "core/portfolio.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {

PortfolioOptimizer::PortfolioOptimizer(
    std::string spec, std::vector<std::unique_ptr<Optimizer>> members)
    : spec_(std::move(spec)), members_(std::move(members)) {
  require(!members_.empty(), "portfolio: needs at least one member");
}

std::string_view PortfolioOptimizer::name() const noexcept { return spec_; }

OptimizerOutcome PortfolioOptimizer::run(
    const OptimizerRequest& request) const {
  const std::size_t count = members_.size();
  // Members are fully independent (own derived seed, own start, own
  // evaluators over the shared read-only context), so they race on the
  // request's pool; results land in per-member slots and the reduction
  // below runs on the caller in member order — the outcome is identical
  // to the historical sequential loop at any thread count. Progress
  // callbacks are serialized so downstream sinks (server sessions, CLI
  // tickers) still observe one event at a time.
  std::mutex progress_mutex;
  ProgressCallback serialized;
  if (request.on_progress) {
    serialized = [&request, &progress_mutex](const OptimizerProgress& p) {
      const std::scoped_lock lock(progress_mutex);
      request.on_progress(p);
    };
  }
  std::vector<std::optional<OptimizerOutcome>> outcomes(count);
  support::parallel_for_indexed(request.pool, count, [&](std::size_t i) {
    OptimizerRequest member_request = request;
    member_request.seed = Rng::mix_seed(request.seed, i);
    member_request.on_progress = serialized;
    if (request.max_evaluations > 0) {
      // Never hand a member share 0: the searches read 0 as "use your
      // configured default budget", which would blow the shared cap.
      member_request.max_evaluations =
          std::max<std::size_t>(1, request.max_evaluations / count +
                                       (i < request.max_evaluations % count
                                            ? 1
                                            : 0));
    }
    outcomes[i] = members_[i]->run(member_request);
  });

  OptimizerOutcome best;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
  for (std::size_t i = 0; i < count; ++i) {
    OptimizerOutcome& outcome = *outcomes[i];
    evaluations += outcome.evaluations;
    iterations += outcome.iterations;
    // Strict improvement only: ties resolve to the earliest member, so the
    // winner is independent of evaluation noise in later members.
    if (i == 0 || outcome.fitness < best.fitness) best = std::move(outcome);
  }
  best.method = spec_;
  best.evaluations = evaluations;
  best.iterations = iterations;
  if (request.on_progress)
    request.on_progress({spec_, best.iterations, best.evaluations,
                         best.fitness});
  return best;
}

}  // namespace iddq::core
