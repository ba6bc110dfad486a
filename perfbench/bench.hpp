// Shared pieces of the serve-path benchmark: the three workloads, the
// metric record both the timed and the traced runs print, and the traced
// run's entry point (ledger.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/fleet.hpp"

namespace perfbench {

/// One workload instance: the fleet configuration with its whole arrival
/// schedule already generated from the seed (TrafficConfig::
/// explicit_arrivals), so the program receives only generated inputs.
struct Workload {
  std::string name;
  looplynx::serve::FleetConfig config;
  /// Attach a serve::Observer and export Prometheus text inside the timed
  /// region (the disaggregated workload only).
  bool observed = false;
  /// Host seconds make_workload took: the arrival schedule, plus the chat
  /// script on chat-cache.
  double traffic_gen_s = 0;
};

/// Builds `name`'s inputs from `seed`. Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The deterministic outputs every run must reproduce exactly, and that
/// must equal the values committed in expected.hpp at the seeds listed
/// there.
struct Signature {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t iterations = 0;
  double makespan_s = 0;
  double ttft_p99_ms = 0;
  std::uint64_t cache_hit_tokens = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t scale_events = 0;
};

Signature signature_of(const looplynx::serve::FleetResult& result);
/// Bitwise equality, doubles included.
bool same(const Signature& a, const Signature& b);
/// The signature as a C++ initializer, the form expected.hpp stores.
std::string describe(const Signature& s);

/// The correctness gate: completed + rejected == offered == generated,
/// per-replica request conservation, no leaked or over-released KV blocks,
/// and the committed outputs at the committed seeds. Returns the failures
/// found; empty means the run passes.
std::vector<std::string> check(const Workload& workload, std::uint64_t seed,
                               const looplynx::serve::FleetResult& result);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Monotonic host clock in seconds.
double now_s();

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// Heap allocations made by this process so far (the counting global
/// operator new in serve_bench.cpp).
std::uint64_t allocation_count();

struct TracedRun {
  std::vector<Metric> metrics;  // every per-layer metric
  bool correct = false;         // the correctness gate passed
  std::uint64_t attempted = 0;  // requests offered
  std::uint64_t failed = 0;     // rejected, or all of them if !correct
};

/// The traced run: one untraced FleetSim::run for reference, one observed
/// run with request records, then replays of that run's inputs into each
/// layer's public calls. Writes `<out_dir>/<workload>.spans.json` and
/// prints the layer ledger and the span self-time table.
TracedRun traced_run(const std::string& workload, std::uint64_t seed,
                     const std::string& out_dir);

}  // namespace perfbench
