#include "core/random_search.hpp"

#include <algorithm>

#include "core/start_partition.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"

namespace iddq::core {

RandomSearchResult random_search(const part::EvalContext& ctx,
                                 std::size_t module_count,
                                 std::size_t samples, std::uint64_t seed,
                                 support::ExecutorPool* pool) {
  require(samples >= 1, "random search: need at least one sample");
  Rng rng(seed);
  RandomSearchResult result;
  bool first = true;

  // Coordinator-draws/worker-evaluates (docs/architecture.md, "Threading
  // model"): the samples are independent, so the coordinator draws a block
  // of start partitions in the serial RNG order (evaluation consumes no
  // randomness), workers fill pre-indexed result slots, and the best-so-far
  // reduction runs on the coordinator in sample order — byte-identical to
  // the sequential loop at any thread count. Blocking bounds the memory at
  // a few partitions per concurrency slot.
  struct Slot {
    part::Partition partition{1, 1};
    part::Fitness fitness;
    part::Costs costs;
  };
  const std::size_t conc =
      pool == nullptr || pool->worker_count() == 0 ? 1 : pool->concurrency();
  const std::size_t block = std::max<std::size_t>(std::size_t{4} * conc, 8);
  std::vector<part::Partition> starts;
  std::vector<Slot> slots;
  for (std::size_t done = 0; done < samples;) {
    const std::size_t n = std::min(block, samples - done);
    starts.clear();
    starts.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      starts.push_back(make_start_partition(ctx.nl, module_count, rng,
                                            ctx.timing_graph.depths()));
    slots.assign(n, Slot{});
    support::parallel_for_indexed(pool, n, [&](std::size_t i) {
      part::PartitionEvaluator eval(ctx, starts[i]);
      slots[i].fitness = eval.fitness();
      slots[i].costs = eval.costs();
      slots[i].partition = eval.partition();
    });
    for (std::size_t i = 0; i < n; ++i) {
      ++result.evaluations;
      if (first || slots[i].fitness < result.best_fitness) {
        first = false;
        result.best_fitness = slots[i].fitness;
        result.best_partition = std::move(slots[i].partition);
        result.best_costs = slots[i].costs;
      }
    }
    done += n;
  }
  return result;
}

}  // namespace iddq::core
