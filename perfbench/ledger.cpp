// The traced run: the per-layer ledger, measured from outside.
//
// src/ carries no spans. Instead the benchmark records spans around its
// own calls into each layer, and replays the run's own inputs into each
// layer's public functions: the run's steps into StepCostModel, its
// routing instants into LoadBalancer::pick, its requests into a fresh
// KvBlockManager and PrefixCache, its migrations into RingFabric::transfer,
// its autoscaler signals into Autoscaler::evaluate, its lifecycle events
// into Observer::record, and its latency samples into
// util::percentile_summary. Per-call time times the run's call count
// estimates each layer's share of FleetSim::run; run.residual_s is what
// those shares leave uncovered (scheduler selection, admission, engine
// dispatch and whatever no replay reaches), or 0 where they overestimate.
//
// A layer a workload does not run gets zeros for its replay metrics: the
// cache on fleet-mixed and disagg-burst, the fabric and the autoscaler on
// fleet-mixed and chat-cache.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/step_cost.hpp"
#include "net/fabric.hpp"
#include "serve/autoscaler.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace looplynx;

// ---- Spans ---------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// In-memory span log; written out once the traced run ends.
class SpanLog {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[id].end = now_s();
    current_ = spans_[id].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const double t0 = spans.empty() ? 0 : spans.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"workload\": \"%s\"}%s\n",
                  i, spans[i].name.c_str(), spans[i].start - t0,
                  spans[i].end - t0, spans[i].parent, workload.c_str(),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

/// Self time = a span's duration minus what its children cover.
void print_self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::printf("\nspan self times (host s)\n  %-24s %12s %12s\n", "span", "total",
              "self");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double total = spans[i].end - spans[i].start;
    std::printf("  %-24s %12.6f %12.6f\n", spans[i].name.c_str(), total,
                total - child[i]);
  }
}

// ---- Layer replays -------------------------------------------------------

/// A layer's replayed per-call cost and the run's call count.
struct LedgerRow {
  std::string layer;
  double calls = 0;
  double ns_per_call = 0;
  double share_s() const { return calls * ns_per_call * 1e-9; }
};

double per_call_ns(double seconds, double calls) {
  return calls > 0 ? seconds * 1e9 / calls : 0;
}

/// Prices decode groups of the run's mean batch size and 64-token prefill
/// chunks over the run's request shapes.
double replay_step_cost(const core::StepCostModel& costs,
                        const std::vector<serve::Arrival>& arrivals,
                        double mean_batch) {
  const std::size_t batch = std::max<std::size_t>(1, std::lround(mean_batch));
  const std::uint32_t max_pos = costs.max_positions() - 1;
  std::vector<std::uint32_t> positions(batch);
  sim::Cycles sink = 0;
  std::size_t calls = 0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const workload::Scenario& s = arrivals[i].shape;
    for (std::size_t j = 0; j < batch; ++j) {
      const workload::Scenario& m = arrivals[(i + j) % arrivals.size()].shape;
      positions[j] = std::min(max_pos, m.prefill + m.decode / 2);
    }
    sink += costs.decode_batch_cycles(positions);
    const std::uint32_t start = std::min(max_pos - 64, s.prefill / 2);
    sink += costs.prefill_chunk_cycles(start, 64);
    calls += 2;
  }
  const double elapsed = now_s() - t0;
  if (sink == 0) throw std::logic_error("step-cost replay priced nothing");
  return per_call_ns(elapsed, static_cast<double>(calls));
}

/// Rebuilds every routing instant's load snapshot from the observed event
/// log, then times LoadBalancer::pick over all of them. `agree` is the
/// share of replayed picks that chose the replica the run chose.
double replay_route(const serve::FleetConfig& cfg,
                    const std::vector<serve::ObservedEvent>& events,
                    double& agree) {
  const std::size_t n = cfg.replicas.size();
  // Decode replicas never take fresh arrivals. A replica whose first
  // scale event activates it starts the run parked.
  std::vector<bool> routable(n, true);
  std::vector<bool> scaled(n, false);
  std::vector<serve::LoadBalancer::ReplicaLoad> loads(n);
  for (const serve::ObservedEvent& e : events) {
    const bool up = e.kind == serve::LifecycleEvent::kScaleUp;
    if ((up || e.kind == serve::LifecycleEvent::kScaleDown) && !scaled[e.replica]) {
      scaled[e.replica] = true;
      loads[e.replica].active = !up;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    routable[i] = !cfg.disaggregated() || cfg.roles[i] != serve::ReplicaRole::kDecode;
    loads[i].active = loads[i].active && routable[i];
  }
  std::vector<serve::LoadBalancer::ReplicaLoad> snapshots;
  std::vector<std::uint32_t> chosen;
  for (const serve::ObservedEvent& e : events) {
    switch (e.kind) {
      case serve::LifecycleEvent::kScaleUp:
      case serve::LifecycleEvent::kScaleDown:
        loads[e.replica].active =
            routable[e.replica] && e.kind == serve::LifecycleEvent::kScaleUp;
        break;
      case serve::LifecycleEvent::kRoute:
        snapshots.insert(snapshots.end(), loads.begin(), loads.end());
        chosen.push_back(e.replica);
        ++loads[e.replica].outstanding;
        break;
      case serve::LifecycleEvent::kKvMigrate:
      case serve::LifecycleEvent::kSteal: {
        const std::uint32_t from =
            e.kind == serve::LifecycleEvent::kSteal ? e.a : e.b;
        if (loads[from].outstanding > 0) --loads[from].outstanding;
        ++loads[e.replica].outstanding;
        break;
      }
      case serve::LifecycleEvent::kFinish:
      case serve::LifecycleEvent::kReject:
        if (loads[e.replica].outstanding > 0) --loads[e.replica].outstanding;
        break;
      default:
        break;
    }
  }
  serve::LoadBalancer balancer(cfg.balancer);
  std::vector<serve::LoadBalancer::ReplicaLoad> view(n);
  std::vector<std::uint32_t> picked(chosen.size());
  const double t0 = now_s();
  for (std::size_t p = 0; p < chosen.size(); ++p) {
    std::copy_n(snapshots.begin() + static_cast<std::ptrdiff_t>(p * n), n,
                view.begin());
    picked[p] = balancer.pick(view);
  }
  const double elapsed = now_s() - t0;
  std::size_t same_pick = 0;
  for (std::size_t p = 0; p < chosen.size(); ++p) same_pick += picked[p] == chosen[p];
  agree = chosen.empty() ? 0 : static_cast<double>(same_pick) / chosen.size();
  return per_call_ns(elapsed, static_cast<double>(chosen.size()));
}

/// Grows each request's block list the way the scheduler does — 64-token
/// prefill chunks, then one grow per decode token — on a fresh manager
/// with the replica's budget and page size, one request at a time.
double replay_kv(const serve::ServingConfig& rc,
                 const std::vector<serve::Arrival>& arrivals) {
  serve::KvBlockManager kv(rc.arch, rc.model, rc.kv_budget_bytes_per_node,
                           rc.kv_block_tokens);
  std::size_t calls = 0;
  std::size_t failed = 0;
  const double t0 = now_s();
  for (const serve::Arrival& a : arrivals) {
    serve::KvBlockList list;
    const std::uint32_t total = a.shape.prefill + a.shape.decode;
    for (std::uint32_t done = 0; done < a.shape.prefill;) {
      done = std::min(a.shape.prefill, done + 64);
      failed += !kv.try_grow(list, done);
      ++calls;
    }
    for (std::uint32_t t = a.shape.prefill + 1; t <= total; ++t) {
      failed += !kv.try_grow(list, t);
      ++calls;
    }
    kv.release_all(list);
  }
  const double elapsed = now_s() - t0;
  if (failed != 0) throw std::logic_error("KV replay ran out of blocks");
  return per_call_ns(elapsed, static_cast<double>(calls));
}

struct CacheReplay {
  double acquire_ns = 0;
  double commit_ns = 0;
  /// Per block freed by reclaim (evicted or swapped out), whether an
  /// explicit reclaim call or a swap-in inside acquire freed it.
  double reclaim_ns_per_block = 0;
  /// Everything else per replayed request: acquire, commit and release,
  /// less the reclaim work inside acquire.
  double request_ns = 0;
};

/// Replays the prompts one replica served into a fresh PrefixCache over a
/// fresh KvBlockManager with that replica's budget: acquire, grow the
/// private blocks (reclaiming first when the pool is short, as the
/// scheduler does), commit the whole prompt, release. The replay frees a
/// different number of blocks than the run did (it holds one prompt at a
/// time), so its time is split into per-request and per-freed-block
/// costs, which the ledger multiplies by the run's own counts.
CacheReplay replay_cache(const serve::ServingConfig& rc,
                         const core::StepCostModel& costs,
                         const std::vector<serve::Arrival>& arrivals,
                         const std::vector<serve::RequestRecord>& records) {
  serve::KvBlockManager kv(rc.arch, rc.model, rc.kv_budget_bytes_per_node,
                           rc.kv_block_tokens);
  serve::PrefixCache cache(kv, costs, rc.kv_swap);
  double acquire_s = 0, commit_s = 0, reclaim_s = 0;
  std::size_t requests = 0;
  std::uint64_t reclaimed = 0;  // blocks the explicit reclaim calls freed
  const double start = now_s();
  for (const serve::RequestRecord& rec : records) {
    if (rec.replica != 0 || rec.rejected) continue;
    const workload::Scenario& shape = arrivals[rec.id].shape;
    serve::CacheBinding binding;
    double t = now_s();
    cache.acquire(shape, rec.id, shape.prefill, shape.prefill, binding);
    acquire_s += now_s() - t;
    serve::KvBlockList list;
    const std::uint32_t private_tokens = shape.prefill - binding.owned_tokens;
    const std::uint32_t missing = kv.blocks_for(private_tokens);
    if (missing > kv.free_blocks()) {
      t = now_s();
      reclaimed += cache.reclaim(missing - kv.free_blocks());
      reclaim_s += now_s() - t;
    }
    if (!kv.try_grow(list, private_tokens)) {
      throw std::logic_error("cache replay could not place a prompt");
    }
    t = now_s();
    cache.commit(shape, rec.id, shape.prefill, shape.prefill, list, binding);
    commit_s += now_s() - t;
    cache.release(binding);
    kv.release_all(list);
    ++requests;
  }
  const double total_s = now_s() - start;
  const double freed =
      static_cast<double>(cache.evict_blocks() + cache.swap_out_blocks());
  CacheReplay out;
  out.acquire_ns = per_call_ns(acquire_s, static_cast<double>(requests));
  out.commit_ns = per_call_ns(commit_s, static_cast<double>(requests));
  out.reclaim_ns_per_block = per_call_ns(reclaim_s, static_cast<double>(reclaimed));
  out.request_ns = per_call_ns(total_s - freed * out.reclaim_ns_per_block * 1e-9,
                               static_cast<double>(requests));
  return out;
}

sim::Task ship_blocks(sim::Engine& engine, net::RingFabric& fabric,
                      sim::Cycles at, std::size_t src, std::size_t dst,
                      std::uint32_t blocks, std::uint64_t block_bytes) {
  co_await engine.delay(at);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    net::Datapack pack;
    pack.bytes = block_bytes;
    pack.src_node = static_cast<std::uint32_t>(src);
    pack.block = b;
    pack.last = b + 1 == blocks;
    co_await fabric.transfer(src, dst, pack);
  }
}

/// Re-sends every observed KV migration, block by block, over a fresh ring
/// fabric on a fresh engine, starting each at the cycle it landed in the
/// run. Returns ns per block.
double replay_fabric(const serve::FleetConfig& cfg,
                     const std::vector<serve::ObservedEvent>& events) {
  const serve::ServingConfig& rc = cfg.replicas.front();
  const serve::KvBlockManager probe(rc.arch, rc.model,
                                    rc.kv_budget_bytes_per_node,
                                    rc.kv_block_tokens);
  sim::Engine engine;
  net::RingFabric fabric(engine, cfg.replicas.size(), cfg.kv_link);
  std::uint64_t blocks = 0;
  const double t0 = now_s();
  for (const serve::ObservedEvent& e : events) {
    if (e.kind != serve::LifecycleEvent::kKvMigrate) continue;
    engine.spawn(ship_blocks(engine, fabric, e.at, e.b, e.replica, e.a,
                             probe.block_bytes()));
    blocks += e.a;
  }
  engine.run();
  const double elapsed = now_s() - t0;
  return per_call_ns(elapsed, static_cast<double>(blocks));
}

/// Feeds each tier's controller the signals the run would have shown it
/// at every evaluation instant: the fleet's queued-request count per live
/// replica (from the request records) and the rolling-window p99 TTFT.
/// Returns ns per evaluation (window upkeep included) and the count.
double replay_autoscale(const serve::FleetConfig& cfg,
                        const serve::FleetResult& result,
                        const std::vector<serve::Arrival>& arrivals,
                        double& evaluations) {
  const serve::AutoscalerConfig& as = cfg.autoscale;
  const double freq = cfg.replicas.front().arch.frequency_hz;
  std::vector<double> arrive_ms, admit_ms;
  std::vector<std::pair<double, double>> first_tokens;  // (at, ttft)
  for (const serve::RequestRecord& r : result.fleet.requests) {
    const double at = static_cast<double>(arrivals[r.id].at) * 1e3 / freq;
    arrive_ms.push_back(at);
    admit_ms.push_back(at + r.queue_wait_ms);
    if (!r.rejected) first_tokens.emplace_back(at + r.ttft_ms, r.ttft_ms);
  }
  std::sort(arrive_ms.begin(), arrive_ms.end());
  std::sort(admit_ms.begin(), admit_ms.end());
  std::sort(first_tokens.begin(), first_tokens.end());
  struct Eval {
    double at;
    double queued;
  };
  std::vector<Eval> instants;
  std::size_t ai = 0, di = 0;
  const double makespan_ms = result.fleet.duration_s * 1e3;
  for (double t = as.eval_interval_ms; t <= makespan_ms; t += as.eval_interval_ms) {
    while (ai < arrive_ms.size() && arrive_ms[ai] <= t) ++ai;
    while (di < admit_ms.size() && admit_ms[di] <= t) ++di;
    instants.push_back({t, static_cast<double>(ai - di)});
  }
  std::vector<serve::Autoscaler> controllers;
  std::vector<std::uint32_t> live;
  for (std::size_t t = 0; t < result.tiers.size(); ++t) {
    const serve::AutoscalerConfig tier_cfg = serve::tier_autoscaler_config(
        as, t, result.tiers[t].role == serve::ReplicaRole::kDecode);
    controllers.emplace_back(tier_cfg, cfg.replicas.front().slo);
    live.push_back(tier_cfg.min_replicas);
  }
  util::SlidingWindow window;
  std::size_t fi = 0;
  std::uint64_t calls = 0;
  const double t0 = now_s();
  for (const Eval& e : instants) {
    while (fi < first_tokens.size() && first_tokens[fi].first <= e.at) {
      window.push(first_tokens[fi].first, first_tokens[fi].second);
      ++fi;
    }
    window.evict_before(e.at - as.ttft_window_ms);
    for (std::size_t t = 0; t < controllers.size(); ++t) {
      serve::ScaleSignals s;
      s.live = live[t];
      s.queue_per_live = e.queued / live[t];
      s.ttft_samples = window.count();
      s.ttft_p99_ms = window.percentile(99.0);
      const serve::Autoscaler::Decision d = controllers[t].evaluate(s);
      live[t] = static_cast<std::uint32_t>(static_cast<int>(live[t]) + d.delta);
      ++calls;
    }
  }
  const double elapsed = now_s() - t0;
  evaluations = static_cast<double>(calls);
  return per_call_ns(elapsed, static_cast<double>(calls));
}

/// Re-records the observed event log into a fresh Observer.
double replay_observe(const serve::Observer& observed) {
  serve::Observer fresh(observed.replicas(), observed.frequency_hz());
  const std::vector<serve::ObservedEvent>& events = observed.events();
  const double t0 = now_s();
  for (const serve::ObservedEvent& e : events) {
    fresh.record(e.kind, e.at, e.request, e.replica, e.a, e.b);
  }
  const double elapsed = now_s() - t0;
  return per_call_ns(elapsed, static_cast<double>(events.size()));
}

/// Finalizes the run's latency samples the way FleetMetrics does: the
/// per-request TTFT, e2e and queue-wait samples through
/// util::percentile_summary, and the inter-token gaps — rebuilt in cycles
/// from the observed token events — through util::radix_sort and
/// util::percentile_summary_presorted. Returns ns per sample; `itl_p99_ms`
/// is the rebuilt gap p99, a cross-check against
/// FleetMetrics::inter_token_gap_ms.
double replay_metrics(const std::vector<serve::RequestRecord>& records,
                      const serve::Observer& observed,
                      const core::ArchConfig& arch, double& itl_p99_ms) {
  std::vector<double> ttft, e2e, wait;
  for (const serve::RequestRecord& r : records) {
    if (r.rejected) continue;
    ttft.push_back(r.ttft_ms);
    e2e.push_back(r.e2e_ms);
    wait.push_back(r.queue_wait_ms);
  }
  std::vector<sim::Cycles> last_token(records.size() + 1, 0);
  std::vector<sim::Cycles> gaps;
  for (const serve::ObservedEvent& e : observed.events()) {
    if (e.kind == serve::LifecycleEvent::kFirstToken) {
      last_token[e.request] = e.at;
    } else if (e.kind == serve::LifecycleEvent::kDecode) {
      gaps.push_back(e.at - last_token[e.request]);
      last_token[e.request] = e.at;
    }
  }
  const double samples =
      static_cast<double>(ttft.size() + e2e.size() + wait.size() + gaps.size());
  // Allocated outside the timed region: FleetMetrics converts the gaps
  // without materializing them.
  std::vector<double> gap_ms(gaps.size());
  const double t0 = now_s();
  const double sink = util::percentile_summary(std::move(ttft)).p99 +
                     util::percentile_summary(std::move(e2e)).p99 +
                     util::percentile_summary(std::move(wait)).p99;
  util::radix_sort(gaps);
  // cycles_to_ms is monotone, so the converted gaps stay ascending.
  std::transform(gaps.begin(), gaps.end(), gap_ms.begin(),
                 [&](sim::Cycles g) { return arch.cycles_to_ms(g); });
  itl_p99_ms = util::percentile_summary_presorted(gap_ms).p99;
  const double elapsed = now_s() - t0;
  if (std::isnan(sink + itl_p99_ms)) throw std::logic_error("NaN latency summary");
  return per_call_ns(elapsed, samples);
}

}  // namespace

TracedRun traced_run(const std::string& name, std::uint64_t seed,
                     const std::string& out_dir) {
  SpanLog log;
  TracedRun out;
  const auto add = [&](const std::string& n, double v, const char* unit) {
    out.metrics.push_back({n, v, unit});
  };
  std::vector<std::string> failures;
  std::vector<LedgerRow> ledger;
  double run_s = 0, traced_run_s = 0;
  {
    Scoped root(log, "workload");
    Workload w;
    {
      Scoped s(log, "traffic.gen");
      w = make_workload(name, seed);
    }
    const serve::ServingConfig& rc = w.config.replicas.front();
    std::vector<double> build_s;
    std::unique_ptr<core::StepCostModel> costs;
    {
      Scoped s(log, "step_cost.build");
      for (int i = 0; i < 3; ++i) {
        const double t0 = now_s();
        costs = std::make_unique<core::StepCostModel>(rc.arch, rc.model,
                                                      rc.cost_probe_stride);
        build_s.push_back(now_s() - t0);
      }
    }

    std::unique_ptr<serve::FleetSim> sim;
    {
      Scoped s(log, "fleet.construct");
      sim = std::make_unique<serve::FleetSim>(w.config);
    }
    // Three untraced and traced runs, alternating, so that a drift in host
    // speed (or the first run's page faults) lands on both sides of the
    // overhead; medians are reported.
    serve::FleetConfig traced_cfg = w.config;
    for (serve::ServingConfig& r : traced_cfg.replicas) r.keep_request_records = true;
    const serve::FleetSim traced_sim(traced_cfg);
    const auto width = static_cast<std::uint32_t>(w.config.replicas.size());
    serve::FleetResult result, traced;
    std::unique_ptr<serve::Observer> obs;
    std::uint64_t allocs = 0;
    std::vector<double> plain_s, traced_s;
    for (int i = 0; i < 3; ++i) {
      {
        serve::Observer own(width, rc.arch.frequency_hz);
        Scoped s(log, "fleet.run");
        const std::uint64_t a0 = allocation_count();
        const double t0 = now_s();
        result = sim->run(w.observed ? &own : nullptr);
        plain_s.push_back(now_s() - t0);
        // Counted on the first run only: later runs reuse coroutine frames
        // the earlier ones freed, so their counts depend on history.
        if (i == 0) allocs = allocation_count() - a0;
      }
      // The traced pass: observer attached and request records kept.
      obs = std::make_unique<serve::Observer>(width, rc.arch.frequency_hz);
      {
        Scoped s(log, "fleet.run_traced");
        const double t0 = now_s();
        traced = traced_sim.run(obs.get());
        traced_s.push_back(now_s() - t0);
      }
      if (!same(signature_of(traced), signature_of(result))) {
        failures.push_back("observed run differs from the unobserved run");
      }
    }
    for (const std::string& f : check(w, seed, result)) failures.push_back(f);
    run_s = median(plain_s);
    traced_run_s = median(traced_s);
    double export_s = 0;
    {
      Scoped s(log, "observe.export");
      std::ostringstream prom;
      const double t0 = now_s();
      obs->write_prometheus(prom);
      export_s = now_s() - t0;
    }

    const std::vector<serve::Arrival>& arrivals = w.config.traffic.explicit_arrivals;
    const serve::FleetMetrics& f = result.fleet;
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double samples =
        count(f.ttft_ms.count + f.token_ms.count + f.e2e_ms.count +
              f.queue_wait_ms.count + f.inter_token_gap_ms.count);
    // Replays of layers this workload does not run stay at zero.
    double step_ns = 0, route_ns = 0, kv_ns = 0, fabric_ns = 0;
    double evaluate_ns = 0, record_ns = 0, percentile_ns = 0;
    CacheReplay cache;
    {
      Scoped replay(log, "replay");
      {
        Scoped s(log, "replay.step_cost");
        step_ns = replay_step_cost(*costs, arrivals, f.mean_batch_size);
        ledger.push_back({"step_cost", count(f.iterations + f.prefill_chunk_steps), step_ns});
      }
      {
        Scoped s(log, "replay.route");
        double agree = 0;
        route_ns = replay_route(w.config, obs->events(), agree);
        ledger.push_back({"route", count(f.offered), route_ns});
        std::printf("route replay: %.1f%% of picks match the run's\n", 100 * agree);
      }
      {
        Scoped s(log, "replay.kv");
        kv_ns = replay_kv(rc, arrivals);
        ledger.push_back({"kv", count(f.prefill_chunk_steps + f.decode_tokens), kv_ns});
      }
      if (rc.prefix_cache) {
        Scoped s(log, "replay.cache");
        cache = replay_cache(rc, *costs, arrivals, traced.fleet.requests);
        ledger.push_back({"cache", count(f.cache_lookups), cache.request_ns});
        ledger.push_back({"cache.reclaim",
                          count(f.cache_evict_blocks + f.cache_swap_out_blocks),
                          cache.reclaim_ns_per_block});
      }
      if (w.config.disaggregated()) {
        Scoped s(log, "replay.fabric");
        fabric_ns = replay_fabric(w.config, obs->events());
        ledger.push_back({"fabric", count(f.kv_migrated_blocks), fabric_ns});
      }
      if (w.config.autoscale.enabled) {
        Scoped s(log, "replay.autoscale");
        double evaluations = 0;
        evaluate_ns = replay_autoscale(w.config, traced, arrivals, evaluations);
        ledger.push_back({"autoscale", evaluations, evaluate_ns});
      }
      {
        Scoped s(log, "replay.observe");
        record_ns = replay_observe(*obs);
        ledger.push_back({"observe", w.observed ? count(obs->events().size()) : 0.0,
                          record_ns});
      }
      {
        Scoped s(log, "replay.metrics");
        double itl_p99_ms = 0;
        percentile_ns = replay_metrics(traced.fleet.requests, *obs, rc.arch, itl_p99_ms);
        ledger.push_back({"metrics", samples, percentile_ns});
        if (itl_p99_ms != f.inter_token_gap_ms.p99) {
          std::printf("note: rebuilt inter-token gap p99 %.6f ms != run's %.6f ms\n",
                      itl_p99_ms, f.inter_token_gap_ms.p99);
        }
      }
    }

    Scoped s(log, "metrics.extract");
    std::uint64_t prompt_tokens = 0;
    for (const serve::Arrival& a : arrivals) prompt_tokens += a.shape.prefill;
    add("traffic.gen_s", w.traffic_gen_s, "s");
    add("traffic.requests", count(arrivals.size()), "count");
    add("traffic.prompt_tokens", count(prompt_tokens), "count");
    add("step_cost.build_s", median(build_s), "s");
    add("step_cost.price_ns", step_ns, "ns");
    add("route.pick_ns", route_ns, "ns");
    add("route.load_imbalance", result.load_imbalance, "ratio");
    add("sched.iterations", count(f.iterations), "count");
    add("sched.mean_batch", f.mean_batch_size, "count");
    add("sched.prefill_chunk_steps", count(f.prefill_chunk_steps), "count");
    add("sched.decode_stall_iters", count(f.decode_stall_iterations), "count");
    add("sched.queue_wait_p99_ms", f.queue_wait_ms.p99, "ms");
    add("sim_ttft_p50_ms", f.ttft_ms.p50, "ms");
    add("kv.grow_ns", kv_ns, "ns");
    add("kv.peak_occupancy", f.kv_peak_occupancy, "frac");
    add("kv.stall_events", count(f.kv_stall_events), "count");
    add("kv.preemptions", count(f.preemptions), "count");
    add("kv.recompute_tokens", count(f.recompute_tokens), "count");
    add("cache.acquire_ns", cache.acquire_ns, "ns");
    add("cache.commit_ns", cache.commit_ns, "ns");
    add("cache.reclaim_ns", cache.reclaim_ns_per_block, "ns");
    add("cache.lookups", count(f.cache_lookups), "count");
    add("cache.hit_rate", f.cache_hit_rate, "frac");
    add("cache.hit_tokens", count(f.cache_hit_tokens), "count");
    add("cache.insert_blocks", count(f.cache_insert_blocks), "count");
    add("cache.evict_blocks", count(f.cache_evict_blocks), "count");
    add("cache.swap_out_blocks", count(f.cache_swap_out_blocks), "count");
    add("cache.swap_in_blocks", count(f.cache_swap_in_blocks), "count");
    const double prefill_work = count(f.prefill_cycles + f.saved_prefill_cycles);
    add("cache.saved_prefill_frac",
        prefill_work > 0 ? count(f.saved_prefill_cycles) / prefill_work : 0, "frac");
    add("cache.blocks_at_end", count(f.cache_blocks_at_end), "count");
    add("fabric.transfer_ns_per_block", fabric_ns, "ns");
    add("fabric.bytes", count(result.fabric_bytes), "B");
    add("fabric.migrations", count(f.kv_migrations), "count");
    add("fabric.migrated_blocks", count(f.kv_migrated_blocks), "count");
    add("fabric.steals", count(f.work_steals), "count");
    add("fabric.ingest_ms", f.kv_migrate_ingest_ms, "ms");
    add("autoscale.evaluate_ns", evaluate_ns, "ns");
    add("autoscale.scale_events", count(result.scale_events.size()), "count");
    add("autoscale.mean_live", result.mean_live_replicas, "count");
    add("observe.events", count(obs->events().size()), "count");
    add("observe.record_ns", record_ns, "ns");
    add("observe.export_s", export_s, "s");
    const double timeline = static_cast<double>(obs->makespan()) * obs->replicas();
    for (const char* cat : serve::kCategories) {
      double cycles = 0;
      for (std::uint32_t r = 0; r < obs->replicas(); ++r) {
        const auto& b = obs->breakdown(r);
        const auto it = b.find(cat);
        if (it != b.end()) cycles += static_cast<double>(it->second);
      }
      add(std::string("observe.frac.") + cat, cycles / timeline, "frac");
    }
    add("metrics.samples", samples, "count");
    add("metrics.percentile_s", samples * percentile_ns * 1e-9, "s");
    double covered = 0;
    for (const LedgerRow& row : ledger) covered += row.share_s();
    add("run.allocs", count(allocs), "count");
    add("run.allocs_per_req", count(allocs) / count(f.offered), "count");
    // The replays are estimates: where their shares add up to more than
    // the run (the cache replay on chat-cache can), the residual reads 0
    // rather than a negative time. The ledger prints the signed value.
    add("run.residual_s", std::max(0.0, run_s - covered), "s");
    add("trace.overhead_s", traced_run_s - run_s, "s");
    out.correct = failures.empty();
    out.attempted = f.offered;
    out.failed = out.correct ? f.rejected : f.offered;
    add("fail_frac", count(out.failed) / count(out.attempted), "frac");
  }

  for (const std::string& f : failures) std::printf("GATE FAILED: %s\n", f.c_str());
  std::printf("workload %s seed %" PRIu64 ": FleetSim::run %.3f s untraced, "
              "%.3f s traced (overhead %.3f s, %.1f%%)\n",
              name.c_str(), seed, run_s, traced_run_s, traced_run_s - run_s,
              run_s > 0 ? 100.0 * (traced_run_s - run_s) / run_s : 0.0);
  std::printf("\nlayer ledger (share = replayed ns/call x calls in the run)\n"
              "  %-16s %14s %12s %10s %7s\n",
              "layer", "calls", "ns/call", "share s", "% run");
  double covered = 0;
  for (const LedgerRow& row : ledger) {
    covered += row.share_s();
    std::printf("  %-16s %14.0f %12.1f %10.4f %6.1f%%\n", row.layer.c_str(),
                row.calls, row.ns_per_call, row.share_s(),
                run_s > 0 ? 100.0 * row.share_s() / run_s : 0.0);
  }
  std::printf("  %-16s %14s %12s %10.4f %6.1f%%\n", "residual", "", "",
              run_s - covered, run_s > 0 ? 100.0 * (run_s - covered) / run_s : 0.0);

  print_self_times(log.spans());
  const std::string path = out_dir + "/" + name + ".spans.json";
  write_spans(path, name, log.spans());
  std::printf("spans written to %s\n\n", path.c_str());
  return out;
}

}  // namespace perfbench
