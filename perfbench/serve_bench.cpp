// Serve-path benchmark: runs one named workload through serve::FleetSim,
// checks its simulated outputs, and prints every metric by name with its
// unit. The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). NOTES.md describes the workloads, the metrics and the
// layer -> metric -> workload predictions.
//
//   serve_bench --workload <fleet-mixed|chat-cache|disagg-burst>
//               --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Untraced run (the Snippet 3 warmup/repeat idiom):
//   1. set-up, after one untimed set-up: generate the inputs from the seed
//      and construct FleetSim (which probes core::System for its
//      StepCostModel) and the Observer; seven samples here and two before
//      each timed run; setup_s is the fastest of them (best-of-N, as
//      bench/engine_speed reports its rates), because a 20 ms set-up on a
//      shared host is slowed by whatever else runs at that moment;
//   2. one validation run, untimed: the correctness gate must pass before
//      any timing counts;
//   3. timed runs until --seconds have elapsed (at least three), each one
//      checked to reproduce the validation run exactly; host metrics are
//      medians over them.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve/observe.hpp"

// ---- Global allocation counter ------------------------------------------
// Counting replacements of the global allocation functions (the pattern of
// tests/test_slot_map.cpp): run.allocs_per_req is an exact work counter.
// The benchmark is single-threaded, so a plain increment suffices.
namespace {
std::uint64_t g_allocations = 0;
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocation_count() { return g_allocations; }

namespace {

using namespace looplynx;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// One set-up: inputs, FleetSim (with its StepCostModel probe) and, for an
/// observed workload, the Observer. Returns its host seconds.
double time_setup(const std::string& name, std::uint64_t seed) {
  const double t0 = now_s();
  const Workload w = make_workload(name, seed);
  const serve::FleetSim sim(w.config);
  if (w.observed) {
    const serve::Observer obs(
        static_cast<std::uint32_t>(w.config.replicas.size()),
        w.config.replicas.front().arch.frequency_hz);
  }
  return now_s() - t0;
}

struct TimedRun {
  serve::FleetResult result;
  double run_s = 0;
};

/// FleetSim::run, plus the observer's Prometheus export when the workload
/// is observed — both inside the timed region.
TimedRun timed_run(const Workload& w, const serve::FleetSim& sim) {
  TimedRun out;
  if (w.observed) {
    serve::Observer obs(static_cast<std::uint32_t>(w.config.replicas.size()),
                        w.config.replicas.front().arch.frequency_hz);
    std::ostringstream prom;
    const double t0 = now_s();
    out.result = sim.run(&obs);
    obs.write_prometheus(prom);
    out.run_s = now_s() - t0;
    if (prom.str().empty()) throw std::runtime_error("empty Prometheus export");
  } else {
    const double t0 = now_s();
    out.result = sim.run();
    out.run_s = now_s() - t0;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int untraced(const Args& args) {
  // One untimed set-up first, so that no sample pays first-use costs.
  time_setup(args.workload, args.seed);
  std::vector<double> setup_s;
  const auto sample_setup = [&](int times) {
    for (int i = 0; i < times; ++i) {
      setup_s.push_back(time_setup(args.workload, args.seed));
    }
  };
  sample_setup(7);

  const Workload w = make_workload(args.workload, args.seed);
  const serve::FleetSim sim(w.config);
  const std::uint64_t offered = w.config.traffic.explicit_arrivals.size();

  // Validation run: nothing is timed until the gate passes.
  const TimedRun validation = timed_run(w, sim);
  const Signature expected = signature_of(validation.result);
  std::vector<std::string> failures = check(w, args.seed, validation.result);
  std::printf("workload %s seed %" PRIu64 ": outputs %s\n", w.name.c_str(),
              args.seed, describe(expected).c_str());

  std::vector<double> run_s;
  std::vector<double> ns_per_iter;
  std::vector<double> req_per_s;
  const auto record = [&](const TimedRun& rep) {
    run_s.push_back(rep.run_s);
    ns_per_iter.push_back(rep.run_s * 1e9 /
                          static_cast<double>(rep.result.fleet.iterations));
    req_per_s.push_back(static_cast<double>(rep.result.fleet.completed) /
                        rep.run_s);
  };
  std::uint64_t attempted = offered;
  std::uint64_t failed = validation.result.fleet.rejected;
  const double start = now_s();
  while (failures.empty() && (run_s.size() < 3 || now_s() - start < args.seconds)) {
    // Set-up samples are spread over the timed window, so that a slow
    // stretch of a shared host cannot hold all of them.
    sample_setup(2);
    const TimedRun rep = timed_run(w, sim);
    attempted += offered;
    failed += rep.result.fleet.rejected;
    if (!same(signature_of(rep.result), expected)) {
      failures.push_back("run " + std::to_string(run_s.size() + 1) +
                         " differs from the validation run: " +
                         describe(signature_of(rep.result)));
    }
    record(rep);
  }
  // A run that failed the gate reports the validation run's timing.
  if (run_s.empty()) record(validation);
  const bool correct = failures.empty();
  for (const std::string& f : failures) std::printf("GATE FAILED: %s\n", f.c_str());
  if (!correct) failed = attempted;

  const serve::FleetResult& r = validation.result;
  const serve::FleetMetrics& f = r.fleet;
  const double completed = static_cast<double>(f.completed);
  std::vector<Metric> metrics = {
      {"sim_req_per_s", median(req_per_s), "1/s"},
      {"host_ns_per_iter", median(ns_per_iter), "ns"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_ttft_p99_ms", f.ttft_ms.p99, "ms"},
      {"sim_itl_p50_ms", f.inter_token_gap_ms.p50, "ms"},
      {"sim_itl_p99_ms", f.inter_token_gap_ms.p99, "ms"},
      {"sim_slo_good_frac",
       static_cast<double>(f.slo_good) / static_cast<double>(f.offered), "frac"},
      {"sim_decode_tok_s", f.decode_tok_s, "tok/s"},
      {"sim_replica_s_per_req", r.replica_seconds / completed, "s"},
  };
  std::printf("%zu timed runs in %.2f s (median %.3f s per run); "
              "%" PRIu64 " requests offered per run\n",
              run_s.size(), now_s() - start, median(run_s),
              offered);
  std::printf("run seconds:");
  for (const double t : run_s) std::printf(" %.3f", t);
  std::printf("\n");
  // The TTFT median is reported per layer (NOTES.md, "TTFT median").
  std::printf("sim_ttft_p50_ms %.6f ms; samples: ttft %zu, itl %zu; "
              "fail_frac %.6f\n", f.ttft_ms.p50, f.ttft_ms.count,
              f.inter_token_gap_ms.count,
              static_cast<double>(failed) / static_cast<double>(attempted));
  print_metrics(metrics);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int traced(const Args& args) {
  const TracedRun run = traced_run(args.workload, args.seed, args.out_dir);
  print_metrics(run.metrics);
  print_result(run.correct, run.attempted, run.failed, run.metrics);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return args.trace ? perfbench::traced(args) : perfbench::untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
