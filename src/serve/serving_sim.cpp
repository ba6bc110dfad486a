#include "serve/serving_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/observe.hpp"
#include "serve/replica.hpp"

namespace looplynx::serve {

ServingSim::ServingSim(const ServingConfig& config)
    : ServingSim(config,
                 core::StepCostModel(config.arch, config.model,
                                     config.cost_probe_stride)) {}

ServingSim::ServingSim(const ServingConfig& config, core::StepCostModel costs)
    : config_(config), costs_(std::move(costs)) {
  if (config_.scheduler.max_batch == 0) {
    throw std::invalid_argument("scheduler max_batch must be >= 1");
  }
  if (config_.scheduler.max_in_flight == 0) {
    throw std::invalid_argument("scheduler max_in_flight must be >= 1");
  }
  if (config_.kv_block_tokens == 0) {
    throw std::invalid_argument(
        "kv_block_tokens must be >= 1 (1 = token-granular)");
  }
  if (config_.kv_swap && !config_.prefix_cache) {
    throw std::invalid_argument(
        "kv_swap requires prefix_cache (swap is an eviction tier of the "
        "prefix cache; without the cache there is nothing to swap)");
  }
}

FleetMetrics ServingSim::run() const { return run(nullptr); }

FleetMetrics ServingSim::run(Observer* observer) const {
  if (observer != nullptr && observer->replicas() != 1) {
    throw std::invalid_argument(
        "ServingSim::run observer must be built for 1 replica");
  }
  // Engine first: unfinished coroutine frames (none in a lone-replica run,
  // but the shared machinery allows them) are destroyed with it, after
  // every object they reference.
  sim::Engine engine;
  detail::FleetShared shared;
  shared.observer = observer;
  shared.target = config_.traffic.request_count();
  detail::Replica replica(engine, config_, costs_, shared, /*id=*/0);
  replica.finished.reserve(shared.target);
  TrafficGen traffic(config_.traffic, config_.arch.frequency_hz);
  const auto route = [&replica]() -> detail::Replica& { return replica; };

  engine.spawn(detail::scheduler_proc(replica));
  if (config_.traffic.process == ArrivalProcess::kClosedLoop) {
    const std::uint32_t clients =
        std::max<std::uint32_t>(1, config_.traffic.clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      engine.spawn(detail::client_proc(engine, shared, traffic,
                                       config_.traffic.think_time_s, route));
    }
  } else {
    engine.spawn(detail::arrivals_proc(engine, traffic, route));
  }
  engine.run();

  FleetMetrics metrics = detail::finalize_metrics(replica);
  metrics.engine_events = engine.events_processed();
  if (observer != nullptr) observer->finalize(engine.now());
  return metrics;
}

}  // namespace looplynx::serve
