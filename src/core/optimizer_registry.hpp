// String-keyed optimizer registry with composable pipelines.
//
// The registry maps method names to factories producing Optimizer instances
// configured from an OptimizerConfig. Built-ins: "evolution", "annealing",
// "random", "greedy", "standard", "tabu", "force" — each bound to the
// method's run_<name> entry point (core/optimizer.hpp). Specs may compose
// stages with '+' ("evolution+greedy"): each later stage starts from the
// partition the previous stage produced — the idiomatic way to express a
// polish pass.
// The pipeline returns the best result any stage reached, a request
// budget is shared across the stages, and a stage that ignores its start
// beyond the module count (e.g. "random") cannot make the result worse.
//
// A spec starting with "portfolio:" races a comma-separated method list on
// a shared budget and returns the best outcome ("portfolio:evolution,
// annealing"); members may themselves be '+' pipelines, but portfolios do
// not nest and cannot appear as a stage inside a '+' pipeline.
//
// The global() registry is preloaded with the built-ins; callers (plugins,
// tests) may add their own factories under new names.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/optimizer.hpp"

namespace iddq::core {

class OptimizerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Optimizer>(const OptimizerConfig&)>;

  /// Process-wide registry, preloaded with the built-in optimizers.
  [[nodiscard]] static OptimizerRegistry& global();

  /// Registers a factory. Throws iddq::Error when the name is empty,
  /// contains '+' (reserved for composition), or is already taken.
  void add(std::string name, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Instantiates `spec`: a registered name, a '+'-composed pipeline of
  /// registered names, or a "portfolio:<m1,m2,...>" race. Throws
  /// iddq::LookupError for unknown or empty components, listing the valid
  /// names in the message, and iddq::Error for nested portfolios.
  [[nodiscard]] std::unique_ptr<Optimizer> make(
      std::string_view spec, const OptimizerConfig& config = {}) const;

 private:
  [[nodiscard]] std::unique_ptr<Optimizer> make_portfolio(
      std::string_view spec, const OptimizerConfig& config) const;

  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers the built-in methods into `registry` (what global() runs
/// once on first use). Exposed so tests can build isolated registries.
void register_builtin_optimizers(OptimizerRegistry& registry);

}  // namespace iddq::core
