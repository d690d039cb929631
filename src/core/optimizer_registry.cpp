#include "core/optimizer_registry.hpp"

#include <sstream>
#include <utility>

#include "core/annealing.hpp"
#include "core/evolution.hpp"
#include "core/force_directed.hpp"
#include "core/portfolio.hpp"
#include "core/random_search.hpp"
#include "core/refiner.hpp"
#include "core/standard_partition.hpp"
#include "core/tabu.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace iddq::core {

namespace {

// The built-in methods: each name maps to the method's one entry point.
struct Builtin {
  std::string_view name;
  OptimizerOutcome (*run)(const OptimizerRequest&, const OptimizerConfig&);
};
constexpr Builtin kBuiltins[] = {
    {"evolution", run_evolution}, {"annealing", run_annealing},
    {"random", run_random},       {"greedy", run_greedy},
    {"standard", run_standard},   {"tabu", run_tabu},
    {"force", run_force},
};

// A built-in method bound to the configuration it was made with.
class BuiltinOptimizer final : public Optimizer {
 public:
  BuiltinOptimizer(const Builtin& builtin, const OptimizerConfig& config)
      : builtin_(builtin), config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return builtin_.name;
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& request) const override {
    return builtin_.run(request, config_);
  }

 private:
  Builtin builtin_;
  OptimizerConfig config_;
};

// Runs registered stages in sequence; every stage after the first starts
// from the partition the previous stage produced. Evaluations and
// iterations accumulate; the returned partition/fitness/costs are the best
// any stage reached (a stage that wanders off — e.g. "random" as a polish
// stage, which only reuses the module count — cannot make the pipeline
// worse than an earlier stage). A request budget is shared across stages:
// each stage gets what the previous stages have not already spent.
class CompositeOptimizer final : public Optimizer {
 public:
  CompositeOptimizer(std::string spec,
                     std::vector<std::unique_ptr<Optimizer>> stages)
      : spec_(std::move(spec)), stages_(std::move(stages)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return spec_;
  }

  [[nodiscard]] OptimizerOutcome run(
      const OptimizerRequest& request) const override {
    OptimizerRequest stage_request = request;
    OptimizerOutcome best;
    OptimizerOutcome stage;
    std::size_t evaluations = 0;
    std::size_t iterations = 0;
    std::vector<GenerationStats> trace;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (request.max_evaluations > 0) {
        if (evaluations >= request.max_evaluations) break;  // budget spent
        stage_request.max_evaluations = request.max_evaluations - evaluations;
      }
      if (i > 0) stage_request.start = std::move(stage.partition);
      stage = stages_[i]->run(stage_request);
      evaluations += stage.evaluations;
      iterations += stage.iterations;
      if (trace.empty()) trace = std::move(stage.trace);
      if (i == 0 || stage.fitness < best.fitness) {
        best.partition = stage.partition;
        best.fitness = stage.fitness;
        best.costs = stage.costs;
      }
    }
    best.method = spec_;
    best.evaluations = evaluations;
    best.iterations = iterations;
    best.trace = std::move(trace);
    return best;
  }

 private:
  std::string spec_;
  std::vector<std::unique_ptr<Optimizer>> stages_;
};

}  // namespace

void register_builtin_optimizers(OptimizerRegistry& registry) {
  for (const Builtin& builtin : kBuiltins)
    registry.add(std::string(builtin.name),
                 [builtin](const OptimizerConfig& config) {
                   return std::make_unique<BuiltinOptimizer>(builtin, config);
                 });
}

OptimizerRegistry& OptimizerRegistry::global() {
  static OptimizerRegistry registry = [] {
    OptimizerRegistry r;
    register_builtin_optimizers(r);
    return r;
  }();
  return registry;
}

void OptimizerRegistry::add(std::string name, Factory factory) {
  require(!name.empty(), "optimizer registry: empty name");
  require(name.find('+') == std::string::npos,
          "optimizer registry: '+' is reserved for composition");
  require(static_cast<bool>(factory), "optimizer registry: null factory");
  const auto [it, inserted] =
      factories_.emplace(std::move(name), std::move(factory));
  if (!inserted)
    throw Error("optimizer registry: '" + it->first + "' already registered");
}

bool OptimizerRegistry::contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> OptimizerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

std::unique_ptr<Optimizer> OptimizerRegistry::make_portfolio(
    std::string_view spec, const OptimizerConfig& config) const {
  const auto members_spec = spec.substr(kPortfolioPrefix.size());
  std::vector<std::unique_ptr<Optimizer>> members;
  std::string normalized{kPortfolioPrefix};
  for (const auto member : str::split(members_spec, ',')) {
    if (member.empty())
      throw LookupError("empty method in portfolio spec '" +
                        std::string(spec) + "'");
    if (str::starts_with(member, kPortfolioPrefix))
      throw Error("portfolio members cannot nest: '" + std::string(spec) +
                  "'");
    members.push_back(make(member, config));
    if (members.size() > 1) normalized += ',';
    normalized.append(members.back()->name());
  }
  if (members.empty())
    throw LookupError("portfolio spec '" + std::string(spec) +
                      "' needs a comma-separated method list, e.g. "
                      "portfolio:evolution,annealing");
  return std::make_unique<PortfolioOptimizer>(std::move(normalized),
                                              std::move(members));
}

std::unique_ptr<Optimizer> OptimizerRegistry::make(
    std::string_view spec, const OptimizerConfig& config) const {
  const auto trimmed = str::trim(spec);
  if (str::starts_with(trimmed, kPortfolioPrefix))
    return make_portfolio(trimmed, config);
  const auto parts = str::split(spec, '+');
  std::vector<std::unique_ptr<Optimizer>> stages;
  std::string normalized;
  stages.reserve(parts.size());
  for (const auto part : parts) {
    const auto it = factories_.find(part);
    if (it == factories_.end()) {
      std::ostringstream os;
      if (part.empty())
        os << "empty optimizer name in spec '" << spec << "'";
      else
        os << "unknown optimizer '" << part << "'";
      os << "; valid names:";
      for (const auto& name : names()) os << ' ' << name;
      throw LookupError(os.str());
    }
    if (!normalized.empty()) normalized += '+';
    normalized.append(part);
    stages.push_back(it->second(config));
  }
  if (stages.size() == 1) return std::move(stages.front());
  return std::make_unique<CompositeOptimizer>(std::move(normalized),
                                              std::move(stages));
}

}  // namespace iddq::core
