// Random-search baseline: evaluate many independent chain-clustered start
// partitions and keep the best. The weakest of the section-4 alternatives;
// it anchors the low end of the optimizer comparison. The samples are
// independent, so they evaluate in parallel on an ExecutorPool with all
// RNG draws on the coordinator — byte-identical at any thread count.
#pragma once

#include "core/optimizer.hpp"

namespace iddq::core {

/// Draws `config.random_samples` starts (a request budget replaces the
/// count) from Rng(req.seed) at request_module_count(req) modules and
/// keeps the best; an explicit start contributes only its module count.
/// iterations and evaluations both count samples. With req.pool, the
/// samples evaluate in parallel. Throws iddq::Error for zero samples.
[[nodiscard]] OptimizerOutcome run_random(const OptimizerRequest& req,
                                          const OptimizerConfig& config);

}  // namespace iddq::core
