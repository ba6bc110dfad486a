// The benchmark's three workloads, all on the paper's configuration
// (GPT-2 medium on core::ArchConfig::two_node() replicas) and all open
// loop: arrivals follow a seeded schedule whatever the fleet's state. The
// schedule is generated here, timed, and handed to the program as
// TrafficConfig::explicit_arrivals. NOTES.md says why each workload exists
// and which layers it does and does not exercise.
#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bench.hpp"
#include "core/arch_config.hpp"
#include "model/config.hpp"
#include "serve/traffic.hpp"
#include "util/rng.hpp"
#include "workload/mix.hpp"

namespace perfbench {

using namespace looplynx;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Replica settings every workload shares: chunked prefill with a 64-token
/// budget, recompute preemption and 16-token KV pages.
serve::ServingConfig base_replica() {
  serve::ServingConfig base;
  base.arch = core::ArchConfig::two_node();
  base.model = model::gpt2_medium();
  base.scheduler.policy = serve::BatchPolicy::kChunkedMixed;
  base.scheduler.max_tokens_per_iter = 64;
  base.scheduler.preempt = serve::PreemptPolicy::kRecomputeYoungest;
  base.kv_block_tokens = 16;
  return base;
}

std::vector<serve::Arrival> generate(const serve::TrafficConfig& traffic,
                                     double frequency_hz) {
  return serve::TrafficGen(traffic, frequency_hz).open_loop_schedule();
}

/// 4 symmetric JSQ replicas, Poisson mixed_fleet() arrivals at a rate the
/// fleet sustains (no growing backlog). No cache, observer, autoscaler or
/// roles: the scheduler-driven fast path.
Workload fleet_mixed(std::uint64_t seed) {
  const serve::ServingConfig base = base_replica();
  Workload w;
  w.name = "fleet-mixed";
  w.config = serve::FleetConfig::homogeneous(
      base, 4, serve::BalancerPolicy::kJoinShortestQueue);
  serve::TrafficConfig traffic;
  traffic.process = serve::ArrivalProcess::kPoisson;
  traffic.mix = workload::mixed_fleet();
  traffic.num_requests = 40000;
  traffic.arrival_rate_per_s = 2.0;
  traffic.seed = seed;
  w.config.traffic.explicit_arrivals =
      generate(traffic, base.arch.frequency_hz);
  return w;
}

/// 2 JSQ replicas with the prefix cache and its swap tier on a 64 MiB
/// per-node KV budget. Multi-turn conversations sharing one 256-token
/// system prompt alternate with unshared one-off prompts, so cache hits
/// (replayed history), misses (one-offs), commits, reclaims, swap-outs,
/// swap-ins and preemptions all happen in one run.
Workload chat_cache(std::uint64_t seed) {
  serve::ServingConfig base = base_replica();
  base.prefix_cache = true;
  base.kv_swap = true;
  base.kv_budget_bytes_per_node = 64ull << 20;
  base.slo.ttft_ms = 2000.0;
  Workload w;
  w.name = "chat-cache";
  w.config = serve::FleetConfig::homogeneous(
      base, 2, serve::BalancerPolicy::kJoinShortestQueue);

  serve::ChatTrafficConfig chat;
  chat.conversations = 200;
  chat.turns = 8;
  chat.system_prompt_tokens = 256;
  chat.content_seed = util::SplitMix64(seed).next();
  const std::vector<workload::Scenario> turns = serve::chat_turn_shapes(chat);
  const workload::Mix one_offs = workload::mixed_fleet();
  util::Rng rng(seed ^ 0x0ff1ce5eedULL);
  serve::TrafficConfig traffic;
  traffic.process = serve::ArrivalProcess::kPoisson;
  traffic.arrival_rate_per_s = 0.75;
  traffic.seed = seed;
  traffic.scripted_shapes.reserve(2 * turns.size());
  for (const workload::Scenario& turn : turns) {
    traffic.scripted_shapes.push_back(turn);
    // An unshared one-off drawn from the fleet mix: its shape has no
    // prompt segments, so its content is unique to the request and every
    // cache lookup for it misses.
    traffic.scripted_shapes.push_back(one_offs.sample(rng.next_double()));
  }
  // FleetSim would stop at the default num_requests if the script were
  // replayed directly (NOTES.md, "scripted_shapes"); explicit arrivals
  // carry their own count.
  traffic.num_requests =
      static_cast<std::uint32_t>(traffic.scripted_shapes.size());
  w.config.traffic.explicit_arrivals =
      generate(traffic, base.arch.frequency_hz);
  return w;
}

/// Bursty (Markov-modulated) mixed_fleet() arrivals on 2 prefill + 3
/// decode replicas: per-tier autoscaling, KV migration over the ring
/// fabric, and an attached observer whose Prometheus export is timed.
Workload disagg_burst(std::uint64_t seed) {
  serve::ServingConfig base = base_replica();
  // A run queue no deeper than the batch keeps every admitted stream in
  // every iteration, and makes backlog visible as queue depth, the signal
  // the decode tier scales on. (At 16 in flight the median inter-token gap
  // flips between one and two iterations from seed to seed.)
  base.scheduler.max_in_flight = 8;
  base.slo.ttft_ms = 1000.0;
  base.slo.token_ms = 100.0;
  Workload w;
  w.name = "disagg-burst";
  w.observed = true;
  w.config = serve::FleetConfig::homogeneous(
      base, 5, serve::BalancerPolicy::kJoinShortestQueue);
  w.config.roles = {serve::ReplicaRole::kPrefill, serve::ReplicaRole::kPrefill,
                    serve::ReplicaRole::kDecode, serve::ReplicaRole::kDecode,
                    serve::ReplicaRole::kDecode};
  w.config.kv_link.bytes_per_cycle = 100e9 / base.arch.frequency_hz;
  serve::AutoscalerConfig& scale = w.config.autoscale;
  scale.enabled = true;
  scale.policy = serve::ScalePolicy::kHybrid;
  scale.tier_min = {1, 1};
  scale.tier_max = {2, 3};
  scale.eval_interval_ms = 50.0;
  // Grow within two evaluations of a burst; release only after eight
  // quiet ones, with a cooldown, so one burst moves each tier up and back
  // down about once instead of flapping.
  scale.queue_high = 2.0;
  scale.queue_low = 0.25;
  scale.up_evals = 2;
  scale.down_evals = 8;
  scale.cooldown_evals = 4;

  serve::TrafficConfig traffic;
  traffic.process = serve::ArrivalProcess::kBursty;
  traffic.mix = workload::mixed_fleet();
  traffic.num_requests = 6000;
  traffic.arrival_rate_per_s = 1.0;
  traffic.burst_factor = 6.0;
  traffic.burst_fraction = 0.25;
  traffic.burst_period_s = 8.0;
  traffic.seed = seed;
  w.config.traffic.explicit_arrivals =
      generate(traffic, base.arch.frequency_hz);
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const double t0 = now_s();
  Workload w;
  if (name == "fleet-mixed") {
    w = fleet_mixed(seed);
  } else if (name == "chat-cache") {
    w = chat_cache(seed);
  } else if (name == "disagg-burst") {
    w = disagg_burst(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.traffic_gen_s = now_s() - t0;
  return w;
}

}  // namespace perfbench
