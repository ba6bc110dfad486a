// Microbenchmarks of the discrete-event simulation engine itself: event
// throughput, FIFO hand-off cost, and full-token simulation rates. These
// bound how long the table/figure harnesses take. BM_PrefixCacheReclaim
// and BM_ObserverRecordFinalize time one serve-layer component each in
// isolation: the prefix cache's victim pick as the number of cached
// blocks grows, and the observer's recording plus finalize as its log
// grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace looplynx;

sim::Task delay_loop(sim::Engine& eng, std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) co_await eng.delay(1);
}

void BM_EngineEventThroughput(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(delay_loop(eng, n));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(10'000)->Arg(100'000);

sim::Task fifo_producer(sim::Fifo<int>& f, int n) {
  for (int i = 0; i < n; ++i) co_await f.put(i);
}
sim::Task fifo_consumer(sim::Fifo<int>& f, int n, long& sum) {
  for (int i = 0; i < n; ++i) sum += co_await f.get();
}

void BM_FifoHandoff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::Fifo<int> fifo(eng, 4);
    long sum = 0;
    eng.spawn(fifo_producer(fifo, n));
    eng.spawn(fifo_consumer(fifo, n, sum));
    eng.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FifoHandoff)->Arg(10'000);

void BM_TokenSimulation(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const core::System sys(core::ArchConfig::nodes(nodes),
                         model::gpt2_medium());
  for (auto _ : state) {
    const auto r = sys.run(1, 0);
    benchmark::DoNotOptimize(r.total_cycles);
  }
  state.SetLabel("GPT-2 345M, one token");
}
BENCHMARK(BM_TokenSimulation)->Arg(1)->Arg(2)->Arg(4);

/// Commits one single-block chain of request-unique content and drops the
/// request's reference, leaving the block cached-idle.
void cache_one_block(serve::KvBlockManager& kv, serve::PrefixCache& cache,
                     const workload::Scenario& shape, std::uint64_t id) {
  serve::CacheBinding binding;
  serve::KvBlockList list;
  cache.acquire(shape, id, shape.prefill, shape.prefill + 1, binding);
  kv.try_grow(list, shape.prefill);
  cache.commit(shape, id, shape.prefill, shape.prefill, list, binding);
  cache.release(binding);
}

void BM_PrefixCacheReclaim(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint32_t kBlockTokens = 16;
  const core::ArchConfig arch = core::ArchConfig::one_node();
  const model::ModelConfig model = model::cosim_config();
  const core::StepCostModel costs(arch, model, 16);
  const std::uint64_t token_bytes =
      serve::KvBlockManager(arch, model, 1).bytes_per_token_per_node();
  serve::KvBlockManager kv(arch, model, (n + 1) * kBlockTokens * token_bytes,
                           kBlockTokens);
  serve::PrefixCache cache(kv, costs, /*swap_enabled=*/false);
  const workload::Scenario shape = workload::make_scenario(kBlockTokens, 1);
  std::uint64_t id = 0;
  while (id < n) cache_one_block(kv, cache, shape, id++);
  // Steady state: every iteration evicts the oldest idle block and caches
  // a fresh one, so the cache holds n blocks throughout.
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.reclaim(1));
    cache_one_block(kv, cache, shape, id++);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(cache.resident_blocks()) + " cached blocks");
}
BENCHMARK(BM_PrefixCacheReclaim)->Arg(1 << 10)->Arg(16 << 10)->Arg(64 << 10);

/// One recorded lifecycle event of the synthetic observed run.
struct ObservedStep {
  sim::Cycles at = 0;
  bool off_clock = false;
};

/// A log shaped like an observed disaggregated run: the clock advances by
/// a few cycles per record, and one record in 160 (the step records and
/// migrated admits) is stamped up to 20k cycles ahead of it.
std::vector<ObservedStep> observed_log(std::uint64_t n) {
  util::Rng rng(7);
  std::vector<ObservedStep> log(n);
  sim::Cycles clock = 0;
  for (ObservedStep& s : log) {
    clock += rng.next_below(4);
    s.off_clock = rng.next_below(160) == 0;
    s.at = s.off_clock ? clock + rng.next_below(20'000) : clock;
  }
  return log;
}

/// Records N events (plus one iteration's three spans per 8 events,
/// round-robin over 5 replicas), then finalizes: the observer's whole
/// cost on an observed run apart from the exporters.
void BM_ObserverRecordFinalize(benchmark::State& state) {
  constexpr std::uint32_t kReplicas = 5;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::vector<ObservedStep> log = observed_log(n);
  for (auto _ : state) {
    serve::Observer obs(kReplicas, 285e6);
    sim::Cycles tail[kReplicas] = {};
    for (std::uint64_t i = 0; i < n; ++i) {
      const ObservedStep& s = log[i];
      const auto request = static_cast<std::uint32_t>(i / 8);
      const std::uint32_t replica = request % kReplicas;
      if (s.off_clock) {
        obs.record_off_clock(serve::LifecycleEvent::kChunk, s.at, request,
                             replica);
      } else {
        obs.record(serve::LifecycleEvent::kDecode, s.at, request, replica);
      }
      if (i % 8 == 0) {
        sim::Cycles& t = tail[replica];
        obs.add_span(replica, serve::CategoryId::kHostSync, t, t + 40);
        obs.add_span(replica, serve::CategoryId::kDecode, t + 40, t + 900);
        obs.add_span(replica, serve::CategoryId::kHostSync, t + 900,
                     t + 960);
        t += 960;
      }
    }
    const sim::Cycles makespan = *std::max_element(tail, tail + kReplicas);
    for (std::uint32_t r = 0; r < kReplicas; ++r) obs.mark_exit(r, tail[r]);
    obs.finalize(makespan);
    benchmark::DoNotOptimize(obs.events().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ObserverRecordFinalize)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace


