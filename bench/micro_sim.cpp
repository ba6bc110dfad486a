// Microbenchmarks of the discrete-event simulation engine itself: event
// throughput, FIFO hand-off cost, and full-token simulation rates. These
// bound how long the table/figure harnesses take. BM_PrefixCacheReclaim,
// BM_ObserverRecordFinalize and BM_CycleSummary time one serve-layer
// component each in isolation: the prefix cache's victim pick as the
// number of cached blocks grows, the observer's recording plus finalize
// as its log grows, and a latency series' insert plus summary as its
// sample count grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "core/system.hpp"
#include "model/config.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "serve/replica.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
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

/// Heap bytes in use (glibc's count, mmapped blocks included), or 0 where
/// the C library does not report it.
std::uint64_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

/// Records N events (plus one iteration's three spans per 8 events,
/// round-robin over 5 replicas), then finalizes: the observer's whole
/// cost on an observed run apart from the exporters. With `reserved`, the
/// log is first sized for all N records, as FleetSim::run does for an
/// open-loop run; without, it grows by doubling, as on a closed-loop run.
/// The `bytes_per_record` counter is the heap a finalized observer holds
/// per record (log, side arrays and span ledger), from an untimed fill.
void observer_record_finalize(benchmark::State& state, bool reserved) {
  constexpr std::uint32_t kReplicas = 5;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::vector<ObservedStep> log = observed_log(n);
  const auto fill = [&](serve::Observer& obs) {
    if (reserved) obs.reserve(n);
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
  };
  {
    const std::uint64_t before = heap_in_use();
    serve::Observer obs(kReplicas, 285e6);
    fill(obs);
    state.counters["bytes_per_record"] =
        static_cast<double>(heap_in_use() - before) / static_cast<double>(n);
  }
  for (auto _ : state) {
    serve::Observer obs(kReplicas, 285e6);
    fill(obs);
    // finalize()'s own output; events() would time an unpacking that no
    // exporter needs.
    benchmark::DoNotOptimize(obs.breakdown(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_ObserverRecordFinalize(benchmark::State& state) {
  observer_record_finalize(state, /*reserved=*/false);
}
BENCHMARK(BM_ObserverRecordFinalize)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_ObserverRecordFinalizeReserved(benchmark::State& state) {
  observer_record_finalize(state, /*reserved=*/true);
}
BENCHMARK(BM_ObserverRecordFinalizeReserved)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

/// An inter-token gap series of `n` samples. Repeat-heavy (draw 0) is
/// shaped like fleet-mixed's at seed 1 (15.7M gaps, 475k distinct values):
/// 97% of samples fall on 2 000 common step lengths, 3% on a long tail.
/// All-distinct (draw 1) is the worst case for a count table: an odd
/// multiplier permutes the low 32 bits, so every sample is new.
std::vector<std::uint64_t> gap_draw(std::uint64_t n, bool all_distinct) {
  util::Rng rng(11);
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (all_distinct) {
      v[i] = (i * 2'654'435'761u) & 0xffff'ffffu;
    } else {
      v[i] = rng.next_below(100) < 97
                 ? 1'500'000 + rng.next_below(2'000) * 997
                 : rng.next_below(std::uint64_t{1} << 26);
    }
  }
  return v;
}

/// Inserts a gap series into a count table and summarizes it through
/// cycle_summary_ms: the serve layer's per-series cost from first sample
/// to report.
void BM_CycleSummary(benchmark::State& state) {
  const std::vector<std::uint64_t> draw =
      gap_draw(static_cast<std::uint64_t>(state.range(0)), state.range(1));
  const core::ArchConfig arch = core::ArchConfig::one_node();
  for (auto _ : state) {
    util::CountTable table;
    for (std::uint64_t c : draw) table.add(c);
    benchmark::DoNotOptimize(
        serve::detail::cycle_summary_ms(std::move(table), arch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(state.range(1) ? "all distinct" : "repeat-heavy");
}

/// BM_CycleSummary's per-sample baseline on the same draw: one vector
/// entry per sample, radix-sorted, every sample converted in the mean.
void BM_CycleSummaryVector(benchmark::State& state) {
  const std::vector<std::uint64_t> draw =
      gap_draw(static_cast<std::uint64_t>(state.range(0)), state.range(1));
  const core::ArchConfig arch = core::ArchConfig::one_node();
  for (auto _ : state) {
    std::vector<std::uint64_t> cycles;
    for (std::uint64_t c : draw) cycles.push_back(c);
    util::radix_sort(cycles);
    double sum = 0.0;
    for (std::uint64_t c : cycles) sum += arch.cycles_to_ms(c);
    const auto at = [&](double p) {
      const double rank =
          (p / 100.0) * static_cast<double>(cycles.size() - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const auto hi = std::min(lo + 1, cycles.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      return arch.cycles_to_ms(cycles[lo]) * (1.0 - frac) +
             arch.cycles_to_ms(cycles[hi]) * frac;
    };
    benchmark::DoNotOptimize(sum / static_cast<double>(cycles.size()) +
                             at(50.0) + at(95.0) + at(99.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(state.range(1) ? "all distinct" : "repeat-heavy");
}

void cycle_summary_args(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {1'000'000, 16'000'000}) {
    for (std::int64_t all_distinct : {0, 1}) b->Args({n, all_distinct});
  }
  b->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_CycleSummary)->Apply(cycle_summary_args);
BENCHMARK(BM_CycleSummaryVector)->Apply(cycle_summary_args);

}  // namespace


