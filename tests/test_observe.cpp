// Tests for the serve-layer observability subsystem (DESIGN.md §7): the
// lifecycle event log's ordering invariants, the cycle-accounting tiling
// identity across the {batch policy x preempt policy x autoscale} matrix,
// byte-identical exports across repeated runs, the observed-run ==
// unobserved-run metrics guarantee, the log's one-time reservation, the
// packed log's round trip and limits, the host-layer breakdown exposure,
// and the CLI flag plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_config.hpp"
#include "core/step_cost.hpp"
#include "host/serving.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "quant/int8_model.hpp"
#include "serve/autoscaler.hpp"
#include "serve/cli_flags.hpp"
#include "serve/fleet.hpp"
#include "serve/kv_block.hpp"
#include "serve/observe.hpp"
#include "serve/traffic.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "workload/mix.hpp"

namespace looplynx::serve {
namespace {

/// Cosim dimensions with a context window wide enough for whale shapes.
model::ModelConfig observe_model() {
  model::ModelConfig m = model::cosim_config();
  m.name = "cosim-256";
  m.max_seq_len = 256;
  return m;
}

/// One deployment: the 1-replica fleet's rollup.
FleetMetrics run_one(const ServingConfig& cfg, Observer* obs = nullptr) {
  return FleetSim(FleetConfig::homogeneous(cfg, 1)).run(obs).fleet;
}

ServingConfig base_config() {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = model::cosim_config();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"test",
                                  {{workload::make_scenario(8, 16), 0.5},
                                   {workload::make_scenario(16, 8), 0.3},
                                   {workload::make_scenario(4, 32), 0.2}}};
  cfg.traffic.num_requests = 24;
  cfg.traffic.arrival_rate_per_s = 200.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  return cfg;
}

/// Tight paged KV + saturating arrivals: the pool runs dry, so recompute
/// preemption demonstrably fires (pinned below).
ServingConfig preempting_config() {
  ServingConfig cfg = base_config();
  cfg.traffic.mix = workload::Mix{"decode-heavy",
                                  {{workload::make_scenario(8, 40), 0.7},
                                   {workload::make_scenario(4, 24), 0.3}}};
  cfg.traffic.num_requests = 96;
  cfg.traffic.arrival_rate_per_s = 400.0;
  cfg.scheduler.max_batch = 8;
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  cfg.scheduler.max_in_flight = 8;
  cfg.kv_block_tokens = 4;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 144 * probe.bytes_per_token_per_node();
  return cfg;
}

/// Bursty whale-heavy fleet that scales between 1 and 3 replicas.
FleetConfig autoscaled_config() {
  ServingConfig base = base_config();
  base.model = observe_model();
  base.traffic.mix = workload::Mix{"skewed",
                                   {{workload::make_scenario(8, 16), 0.7},
                                    {workload::make_scenario(192, 48), 0.3}}};
  base.traffic.num_requests = 48;
  base.traffic.arrival_rate_per_s = 600.0;
  base.traffic.process = ArrivalProcess::kBursty;
  base.traffic.burst_factor = 4.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 0.05;
  base.scheduler.max_in_flight = 4;

  FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  cfg.autoscale.enabled = true;
  cfg.autoscale.policy = ScalePolicy::kQueueDepth;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 3;
  cfg.autoscale.eval_interval_ms = 2.0;
  cfg.autoscale.queue_high = 1.0;
  cfg.autoscale.queue_low = 0.25;
  cfg.autoscale.up_evals = 1;
  cfg.autoscale.down_evals = 2;
  cfg.autoscale.cooldown_evals = 1;
  return cfg;
}

/// Asserts the tiling identity plus the event log's structural invariants
/// on a finalized observer: timestamps are globally nondecreasing (the
/// engine's event order), every request's lifecycle is well-ordered
/// (arrive first; admit before any chunk; first-token before decode and
/// KV migration; finish/reject terminal), and replica indices are in range.
void check_observer_invariants(const Observer& obs) {
  ASSERT_TRUE(obs.finalized());
  // Tiling: per replica, the category totals sum to the makespan exactly.
  for (std::uint32_t r = 0; r < obs.replicas(); ++r) {
    sim::Cycles total = 0;
    for (const auto& [cat, cycles] : obs.breakdown(r)) total += cycles;
    EXPECT_EQ(total, obs.makespan()) << "replica " << r;
    // The same sum taken over the canonical category list: every key of
    // the breakdown is one of kCategories.
    sim::Cycles canonical = 0;
    for (const char* cat : kCategories) {
      const auto it = obs.breakdown(r).find(cat);
      if (it != obs.breakdown(r).end()) canonical += it->second;
    }
    EXPECT_EQ(canonical, obs.makespan()) << "replica " << r;
  }
  // Event-log ordering.
  sim::Cycles prev = 0;
  struct PerRequest {
    bool arrived = false, admitted = false, first_token = false;
    bool terminal = false;
    sim::Cycles arrive_at = 0, admit_at = 0, ttft_at = 0, end_at = 0;
  };
  std::map<std::uint32_t, PerRequest> reqs;
  for (const ObservedEvent& e : obs.events()) {
    EXPECT_GE(e.at, prev) << "event log must follow engine time";
    prev = e.at;
    EXPECT_LT(e.replica, obs.replicas());
    if (e.request == kNoRequest) {
      EXPECT_TRUE(e.kind == LifecycleEvent::kScaleUp ||
                  e.kind == LifecycleEvent::kScaleDown ||
                  e.kind == LifecycleEvent::kDrain);
      continue;
    }
    PerRequest& r = reqs[e.request];
    EXPECT_FALSE(r.terminal) << "events after finish/reject, request "
                             << e.request;
    switch (e.kind) {
      case LifecycleEvent::kRoute:
        break;  // fleet-level routing precedes arrival at the replica
      case LifecycleEvent::kArrive:
        EXPECT_FALSE(r.arrived);
        r.arrived = true;
        r.arrive_at = e.at;
        break;
      case LifecycleEvent::kAdmit:
        EXPECT_TRUE(r.arrived);
        r.admitted = true;
        r.admit_at = e.at;
        EXPECT_GE(e.at, r.arrive_at);
        break;
      case LifecycleEvent::kReject:
        EXPECT_TRUE(r.arrived);
        r.terminal = true;
        break;
      case LifecycleEvent::kFirstChunk:
      case LifecycleEvent::kChunk:
      case LifecycleEvent::kRecomputeStart:
      case LifecycleEvent::kRecomputeEnd:
      case LifecycleEvent::kPreempt:
        EXPECT_TRUE(r.admitted);
        break;
      case LifecycleEvent::kFirstToken:
        EXPECT_TRUE(r.admitted);
        EXPECT_FALSE(r.first_token);
        r.first_token = true;
        r.ttft_at = e.at;
        EXPECT_GE(e.at, r.admit_at);
        break;
      case LifecycleEvent::kDecode:
        EXPECT_TRUE(r.first_token);
        break;
      case LifecycleEvent::kFinish:
        EXPECT_TRUE(r.first_token);
        r.terminal = true;
        r.end_at = e.at;
        EXPECT_GE(e.at, r.ttft_at);
        break;
      case LifecycleEvent::kCacheHit:
      case LifecycleEvent::kCacheMiss:
      case LifecycleEvent::kSteal:
        EXPECT_TRUE(r.arrived);
        break;
      case LifecycleEvent::kKvMigrate:
        EXPECT_TRUE(r.first_token);  // the prompt is done before it ships
        break;
      default:
        ADD_FAILURE() << "unexpected fleet-scoped kind on request event";
    }
  }
  for (const auto& [id, r] : reqs) {
    EXPECT_TRUE(r.terminal) << "request " << id << " never finished";
  }
}

util::Cli make_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "test");
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

std::uint64_t count_kind(const Observer& obs, LifecycleEvent kind) {
  std::uint64_t n = 0;
  for (const ObservedEvent& e : obs.events()) n += (e.kind == kind) ? 1 : 0;
  return n;
}

// ---------------------------------------------- Observer construction

TEST(ObserverTest, ConstructorValidatesArguments) {
  EXPECT_THROW(Observer(0, 285e6), std::invalid_argument);
  EXPECT_THROW(Observer(1, 0.0), std::invalid_argument);
  EXPECT_THROW(Observer(1, -1.0), std::invalid_argument);
  EXPECT_NO_THROW(Observer(4, 285e6));
}

TEST(ObserverTest, LifecycleEventNamesAreStable) {
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kRoute), "route");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kFirstToken),
               "first-token");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kRecomputeStart),
               "recompute-start");
  EXPECT_STREQ(lifecycle_event_name(LifecycleEvent::kScaleDown),
               "scale-down");
}

TEST(ObserverTest, WaitPairingMisuseThrows) {
  Observer obs(1, 285e6);
  EXPECT_THROW(obs.end_wait(0, 10), std::logic_error);  // no open wait
  obs.begin_wait(0, CategoryId::kSchedulerIdle, 0);
  EXPECT_THROW(obs.begin_wait(0, CategoryId::kKvStall, 5), std::logic_error);
  obs.end_wait(0, 10);
  EXPECT_NO_THROW(obs.begin_wait(0, CategoryId::kKvStall, 10));
}

TEST(ObserverTest, ExportBeforeFinalizeThrows) {
  Observer obs(1, 285e6);
  std::ostringstream os;
  EXPECT_THROW(obs.write_chrome_trace(os), std::logic_error);
  EXPECT_THROW(obs.write_prometheus(os), std::logic_error);
  obs.finalize(0);
  EXPECT_NO_THROW(obs.write_chrome_trace(os));
  EXPECT_THROW(obs.finalize(0), std::logic_error);  // single-use
}

TEST(ObserverTest, FinalizeAssertsTheTilingIdentity) {
  Observer obs(1, 285e6);
  obs.add_span(0, CategoryId::kDecode, 0, 50);  // 50-cycle gap to makespan...
  EXPECT_THROW(obs.finalize(100), std::logic_error);
  Observer ok(1, 285e6);
  ok.add_span(0, CategoryId::kDecode, 0, 50);
  ok.mark_exit(0, 50);  // ...unless the tail is accounted as drain
  ok.finalize(100);
  EXPECT_EQ(ok.breakdown(0).at(category::kDrain), 50u);
}

/// Records `log` in order — on-clock entries through record(), the rest
/// through record_off_clock() — with each event's recording index in its
/// `a` payload, finalizes, and checks the result is exactly the
/// permutation a stable sort of the recording order by cycle produces.
void expect_finalize_matches_stable_sort(
    const std::vector<std::pair<sim::Cycles, bool>>& log) {
  Observer obs(1, 285e6);
  std::vector<ObservedEvent> expected;
  for (std::uint32_t i = 0; i < log.size(); ++i) {
    const auto [at, on_clock] = log[i];
    if (on_clock) {
      obs.record(LifecycleEvent::kDecode, at, 7, 0, i);
    } else {
      obs.record_off_clock(LifecycleEvent::kChunk, at, 7, 0, i);
    }
    expected.push_back(ObservedEvent{at, LifecycleEvent::kDecode, 7, 0, i});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const ObservedEvent& x, const ObservedEvent& y) {
                     return x.at < y.at;
                   });
  obs.finalize(0);
  ASSERT_EQ(obs.events().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(obs.events()[i].a, expected[i].a) << "position " << i;
    ASSERT_EQ(obs.events()[i].at, expected[i].at) << "position " << i;
  }
}

TEST(ObserverTest, FinalizeOrderMatchesStableSort) {
  expect_finalize_matches_stable_sort({});
  expect_finalize_matches_stable_sort({{5, true}});
  expect_finalize_matches_stable_sort({{5, false}});
  expect_finalize_matches_stable_sort({{1, true}, {1, true}, {4, true}});
  expect_finalize_matches_stable_sort({{9, false}, {3, false}, {3, false}});
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    // Small clock steps and a narrow off-clock window so equal cycles —
    // within each list and across the two — are common.
    const std::uint64_t n = rng.next_below(300);
    const std::uint64_t off_share = rng.next_below(5);  // 0 = none, 4 = all
    std::vector<std::pair<sim::Cycles, bool>> log;
    sim::Cycles clock = 20;
    for (std::uint64_t i = 0; i < n; ++i) {
      clock += rng.next_below(3);
      if (off_share == 0 || (off_share < 4 && rng.next_below(4) >= off_share)) {
        log.emplace_back(clock, true);
        continue;
      }
      // Ahead of the clock, behind it, or on it.
      const sim::Cycles skew = rng.next_below(12);
      switch (rng.next_below(3)) {
        case 0:
          log.emplace_back(clock + skew, false);
          break;
        case 1:
          log.emplace_back(clock - skew, false);
          break;
        default:
          log.emplace_back(clock, false);
      }
    }
    expect_finalize_matches_stable_sort(log);
  }
}

TEST(ObserverTest, OnClockStampGoingBackwardsThrows) {
  Observer obs(1, 285e6);
  obs.record(LifecycleEvent::kArrive, 10, 0, 0);
  obs.record(LifecycleEvent::kAdmit, 10, 0, 0);  // equal stamps are fine
  EXPECT_THROW(obs.record(LifecycleEvent::kFirstToken, 9, 0, 0),
               std::logic_error);
  // An off-clock stamp behind the clock is what record_off_clock is for.
  EXPECT_NO_THROW(
      obs.record_off_clock(LifecycleEvent::kChunk, 9, 0, 0, 4, 4));
  EXPECT_NO_THROW(obs.record(LifecycleEvent::kFirstToken, 12, 0, 0));
}

// ------------------------------------------------ Packed log storage

void expect_same_event(const ObservedEvent& got, const ObservedEvent& want,
                       std::size_t i) {
  EXPECT_EQ(got.at, want.at) << "position " << i;
  EXPECT_EQ(got.kind, want.kind) << "position " << i;
  EXPECT_EQ(got.request, want.request) << "position " << i;
  EXPECT_EQ(got.replica, want.replica) << "position " << i;
  EXPECT_EQ(got.a, want.a) << "position " << i;
  EXPECT_EQ(got.b, want.b) << "position " << i;
}

TEST(ObserveStorageTest, EveryFieldRoundTripsThroughThePackedLog) {
  constexpr std::uint32_t kReplicas = 3;
  constexpr sim::Cycles kMax = Observer::kMaxStamp;
  const sim::Cycles stamps[] = {0, 1, kMax - 1, kMax};
  const std::uint32_t words[] = {0, 1, 0xffffffffu};
  Observer obs(kReplicas, 285e6);
  std::vector<ObservedEvent> recorded;
  std::size_t w = 0;
  for (std::size_t si = 0; si < std::size(stamps); ++si) {
    for (std::uint8_t k = 0;
         k <= static_cast<std::uint8_t>(LifecycleEvent::kSteal); ++k) {
      for (const std::uint32_t replica : {0u, kReplicas - 1}) {
        for (const std::uint32_t request : {0u, kNoRequest}) {
          for (const bool on_clock : {true, false}) {
            // On-clock stamps rise with the outer loop; off-clock ones
            // fall, so they land ahead of and behind the clock.
            const ObservedEvent e{
                on_clock ? stamps[si] : stamps[std::size(stamps) - 1 - si],
                static_cast<LifecycleEvent>(k), request, replica,
                words[w % 3], words[(w / 3) % 3]};
            ++w;
            if (on_clock) {
              obs.record(e.kind, e.at, e.request, e.replica, e.a, e.b);
            } else {
              obs.record_off_clock(e.kind, e.at, e.request, e.replica, e.a,
                                   e.b);
            }
            recorded.push_back(e);
          }
        }
      }
    }
  }
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    obs.add_span(r, CategoryId::kDecode, 0, kMax);
  }
  obs.finalize(kMax);
  std::stable_sort(recorded.begin(), recorded.end(),
                   [](const ObservedEvent& x, const ObservedEvent& y) {
                     return x.at < y.at;
                   });
  const std::vector<ObservedEvent>& got = obs.events();
  ASSERT_EQ(got.size(), recorded.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_event(got[i], recorded[i], i);
  }
  // The widest span's end comes back whole too.
  std::ostringstream trace;
  obs.write_chrome_trace(trace);
  EXPECT_NE(trace.str().find(std::to_string(kMax)), std::string::npos);
}

TEST(ObserveStorageTest, SpansThatSkipOrOverlapExportWhole) {
  // Spans usually abut (each begins where the last ended); the ledger
  // stores a cursor move for those that do not.
  Observer obs(2, 285e6);
  obs.add_span(0, CategoryId::kDecode, 0, 10);
  obs.add_span(0, CategoryId::kDecode, 10, 10);  // zero-width: not stored
  obs.add_span(0, CategoryId::kPrefill, 15, 20);  // skips [10, 15)
  obs.add_span(0, CategoryId::kHostSync, 12, 14);  // behind the last end
  obs.add_span(0, CategoryId::kKvStall, 14, 30);
  obs.add_span(1, CategoryId::kDrain, 3, 36);  // a first span past 0
  obs.add_span(1, CategoryId::kSchedulerIdle, 0, 0);
  obs.finalize(33);
  std::ostringstream os;
  obs.write_chrome_trace(os);
  std::string spans;
  for (std::size_t at = os.str().find("\"cat\":\"breakdown\"");
       at != std::string::npos;
       at = os.str().find("\"cat\":\"breakdown\"", at + 1)) {
    const std::size_t ts = os.str().find("\"pid\":", at);
    spans += os.str().substr(ts, os.str().find('}', ts) - ts) + "\n";
  }
  EXPECT_EQ(spans,
            "\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":10\n"
            "\"pid\":0,\"tid\":0,\"ts\":15,\"dur\":5\n"
            "\"pid\":0,\"tid\":0,\"ts\":12,\"dur\":2\n"
            "\"pid\":0,\"tid\":0,\"ts\":14,\"dur\":16\n"
            "\"pid\":1,\"tid\":0,\"ts\":3,\"dur\":33\n");
}

TEST(ObserveStorageTest, ValuesPastThePackedLimitsAreRejected) {
  const std::string max_stamp = std::to_string(Observer::kMaxStamp);
  const std::string max_replicas = std::to_string(Observer::kMaxReplicas);
  EXPECT_EQ(Observer::kMaxStamp, (sim::Cycles{1} << 45) - 1);
  EXPECT_GE(Observer::kMaxReplicas, 2048u);
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::exception& e) {
      return e.what();
    }
    return "no exception";
  };

  EXPECT_NO_THROW(Observer(Observer::kMaxReplicas, 285e6));
  EXPECT_THROW(Observer(Observer::kMaxReplicas + 1, 285e6),
               std::invalid_argument);
  EXPECT_NE(message_of([] { Observer(Observer::kMaxReplicas + 1, 285e6); })
                .find(max_replicas),
            std::string::npos);

  Observer obs(2, 285e6);
  const sim::Cycles past = Observer::kMaxStamp + 1;
  EXPECT_THROW(obs.record(LifecycleEvent::kDecode, past, 0, 0),
               std::invalid_argument);
  EXPECT_NE(message_of([&] {
              obs.record(LifecycleEvent::kDecode, past, 0, 0);
            }).find(max_stamp),
            std::string::npos);
  EXPECT_THROW(obs.record_off_clock(LifecycleEvent::kChunk, past, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(obs.add_span(0, CategoryId::kDecode, 0, past),
               std::invalid_argument);
  EXPECT_THROW(obs.record(LifecycleEvent::kDecode, 5, 0, 2),
               std::out_of_range);
  EXPECT_THROW(obs.record_off_clock(LifecycleEvent::kChunk, 5, 0, 2),
               std::out_of_range);
  // Nothing was stored, truncated or otherwise.
  EXPECT_TRUE(obs.events().empty());
  obs.add_span(0, CategoryId::kDecode, 0, 10);
  obs.add_span(1, CategoryId::kDecode, 0, 10);
  obs.finalize(10);
  EXPECT_TRUE(obs.events().empty());

  // A schedule the log cannot stamp fails before the engine starts.
  ServingConfig cfg = base_config();
  cfg.traffic.explicit_arrivals = {
      Arrival{past, workload::make_scenario(8, 16)}};
  const FleetConfig fleet = FleetConfig::homogeneous(cfg, 1);
  Observer late(1, cfg.arch.frequency_hz);
  EXPECT_THROW(FleetSim(fleet).run(&late), std::invalid_argument);
  EXPECT_TRUE(late.events().empty());
  // One that starts in range and runs past the limit fails mid-run with
  // the same exception type, so the CLIs still exit 2.
  cfg.traffic.explicit_arrivals.front().at = Observer::kMaxStamp - 10;
  Observer crossing(1, cfg.arch.frequency_hz);
  EXPECT_THROW(FleetSim(FleetConfig::homogeneous(cfg, 1)).run(&crossing),
               std::invalid_argument);

  // The CLI rejects a fleet the observer cannot index before building it.
  EXPECT_NO_THROW(parse_scheduler_cli(make_cli(
      {"--replicas=" + max_replicas, "--metrics-out=/tmp/m.prom"})));
  const std::string wide = std::to_string(Observer::kMaxReplicas + 1);
  EXPECT_THROW(parse_scheduler_cli(make_cli(
                   {"--replicas=" + wide, "--trace-out=/tmp/t.json"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--autoscale",
                                             "--max-replicas=" + wide,
                                             "--metrics-out=/tmp/m.prom"})),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_scheduler_cli(make_cli({"--replicas=" + wide})));
}

TEST(ObserveStorageTest, EventsIsStableAndTracksTheLogBeforeFinalize) {
  Observer obs(1, 285e6);
  EXPECT_TRUE(obs.events().empty());
  obs.record(LifecycleEvent::kArrive, 3, 0, 0, 8, 16);
  obs.record_off_clock(LifecycleEvent::kFirstChunk, 9, 0, 0, 8, 8);
  obs.record(LifecycleEvent::kAdmit, 4, 0, 0, 1);
  // Before finalize(): the on-clock records so far, off-clock ones aside.
  ASSERT_EQ(obs.events().size(), 2u);
  expect_same_event(obs.events()[0],
                    {3, LifecycleEvent::kArrive, 0, 0, 8, 16}, 0);
  expect_same_event(obs.events()[1], {4, LifecycleEvent::kAdmit, 0, 0, 1, 0},
                    1);
  obs.record(LifecycleEvent::kFirstToken, 9, 0, 0);
  ASSERT_EQ(obs.events().size(), 3u);
  expect_same_event(obs.events()[2],
                    {9, LifecycleEvent::kFirstToken, 0, 0, 0, 0}, 2);
  obs.add_span(0, CategoryId::kPrefill, 0, 9);
  obs.finalize(9);
  const std::vector<ObservedEvent> first = obs.events();
  const std::vector<ObservedEvent>& second = obs.events();
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_event(second[i], first[i], i);
  }
  expect_same_event(first[2], {9, LifecycleEvent::kFirstChunk, 0, 0, 8, 8},
                    2);
}

// ------------------------------------- Observed runs and the tiling law

TEST(ObserveRunTest, ObservedRunLeavesMetricsUntouched) {
  const ServingConfig cfg = base_config();
  const core::StepCostModel costs(cfg.arch, cfg.model,
                                  cfg.cost_probe_stride);
  const FleetSim sim(FleetConfig::homogeneous(cfg, 1), costs);
  const FleetMetrics plain = sim.run().fleet;
  Observer obs(1, cfg.arch.frequency_hz);
  const FleetMetrics observed = sim.run(&obs).fleet;
  // Bit-identical, not approximately equal: observation is pure
  // bookkeeping, it must not perturb the simulation.
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.rejected, observed.rejected);
  EXPECT_EQ(plain.duration_s, observed.duration_s);
  EXPECT_EQ(plain.ttft_ms.p99, observed.ttft_ms.p99);
  EXPECT_EQ(plain.e2e_ms.mean, observed.e2e_ms.mean);
  EXPECT_EQ(plain.kv_stall_events, observed.kv_stall_events);
}

TEST(ObserveRunTest, TilingHoldsAcrossPolicyMatrix) {
  for (const BatchPolicy policy :
       {BatchPolicy::kPrefillPriority, BatchPolicy::kDecodePriority,
        BatchPolicy::kChunkedMixed}) {
    ServingConfig cfg = base_config();
    cfg.scheduler.policy = policy;
    if (policy == BatchPolicy::kChunkedMixed) {
      cfg.scheduler.max_tokens_per_iter = 16;
    }
    Observer obs(1, cfg.arch.frequency_hz);
    const FleetMetrics m = run_one(cfg, &obs);
    check_observer_invariants(obs);
    EXPECT_GT(obs.makespan(), 0u);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kFinish), m.completed);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kReject), m.rejected);
    EXPECT_EQ(count_kind(obs, LifecycleEvent::kArrive), m.offered);
  }
}

TEST(ObserveRunTest, PreemptionEventsAndRecomputeCyclesAppear) {
  const ServingConfig cfg = preempting_config();
  Observer obs(1, cfg.arch.frequency_hz);
  const FleetMetrics m = run_one(cfg, &obs);
  check_observer_invariants(obs);
  ASSERT_GT(m.preemptions, 0u);  // the config must exercise the pool limit
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kPreempt), m.preemptions);
  // Every preemption implies a recovery: recompute-start events and
  // recompute cycles in the breakdown.
  EXPECT_GT(count_kind(obs, LifecycleEvent::kRecomputeStart), 0u);
  EXPECT_GT(obs.breakdown(0).at(category::kRecompute), 0u);
}

TEST(ObserveRunTest, FleetRunTilesEveryReplica) {
  ServingConfig base = base_config();
  base.traffic.num_requests = 48;
  const FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  Observer obs(3, base.arch.frequency_hz);
  const FleetResult fr = FleetSim(cfg).run(&obs);
  check_observer_invariants(obs);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kRoute), fr.fleet.offered);
  // A static fleet records no scale traffic.
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleUp), 0u);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleDown), 0u);
}

TEST(ObserveRunTest, AutoscaledRunRecordsScaleAndDrainEvents) {
  const FleetConfig cfg = autoscaled_config();
  Observer obs(cfg.autoscale.max_replicas,
               cfg.replicas.front().arch.frequency_hz);
  const FleetResult fr = FleetSim(cfg).run(&obs);
  check_observer_invariants(obs);
  ASSERT_FALSE(fr.scale_events.empty());  // the burst must move the fleet
  std::uint64_t ups = 0, downs = 0;
  for (const ScaleEvent& e : fr.scale_events) (e.to > e.from ? ups : downs)++;
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleUp), ups);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kScaleDown), downs);
  // Every scale-down drains the deactivated replica.
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kDrain), downs);
}

/// Observation adds no engine events: an observed run processes exactly
/// as many as the same run unobserved, on a single replica under paged
/// recompute preemption, a JSQ fleet and a 2-prefill + 1-decode fleet
/// migrating KV over the fabric.
TEST(ObserveRunTest, ObservedRunProcessesTheSameEngineEvents) {
  {
    const ServingConfig cfg = preempting_config();
    const std::uint64_t plain = run_one(cfg).engine_events;
    Observer obs(1, cfg.arch.frequency_hz);
    const FleetMetrics observed = run_one(cfg, &obs);
    ASSERT_GT(observed.preemptions, 0u);
    EXPECT_GT(plain, 0u);
    EXPECT_EQ(observed.engine_events, plain);
  }
  ServingConfig base = base_config();
  base.traffic.num_requests = 48;
  FleetConfig jsq =
      FleetConfig::homogeneous(base, 3, BalancerPolicy::kJoinShortestQueue);
  FleetConfig disagg = jsq;
  disagg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
                  ReplicaRole::kDecode};
  for (const FleetConfig* cfg : {&jsq, &disagg}) {
    const FleetResult plain = FleetSim(*cfg).run();
    Observer obs(3, base.arch.frequency_hz);
    const FleetResult observed = FleetSim(*cfg).run(&obs);
    EXPECT_GT(plain.fleet.engine_events, 0u);
    EXPECT_EQ(observed.fleet.engine_events, plain.fleet.engine_events);
    EXPECT_EQ(observed.fleet.kv_migrations, plain.fleet.kv_migrations);
  }
  EXPECT_GT(FleetSim(disagg).run().fleet.kv_migrations, 0u);
}

TEST(ObserveRunTest, RunRejectsMismatchedObserverWidth) {
  const ServingConfig cfg = base_config();
  Observer wide(2, cfg.arch.frequency_hz);
  EXPECT_THROW(run_one(cfg, &wide), std::invalid_argument);
  const FleetConfig fleet = FleetConfig::homogeneous(
      base_config(), 3, BalancerPolicy::kRoundRobin);
  Observer narrow(2, cfg.arch.frequency_hz);
  EXPECT_THROW(FleetSim(fleet).run(&narrow), std::invalid_argument);
}

// ------------------------------------------------------- Log storage
//
// FleetSim::run sizes an observed open-loop run's log once, from the
// schedule, before the engine starts. A run that stays inside that
// reservation ends with the log's capacity unchanged: recording and
// finalize's in-place merge never regrew it.

/// The observe-golden configs (tests/test_determinism_golden.cpp): the
/// paged-recompute single replica, the queue-policy autoscaled fleet, and
/// the disaggregated tier-autoscaled fleet the LifecyclePins export uses.
ServingConfig golden_base() {
  ServingConfig cfg;
  cfg.arch = core::ArchConfig::one_node();
  cfg.model = observe_model();
  cfg.cost_probe_stride = 16;
  cfg.traffic.mix = workload::Mix{"skewed",
                                  {{workload::make_scenario(8, 16), 0.8},
                                   {workload::make_scenario(192, 48), 0.2}}};
  cfg.traffic.num_requests = 32;
  cfg.traffic.arrival_rate_per_s = 300.0;
  cfg.traffic.seed = 42;
  cfg.scheduler.max_batch = 4;
  cfg.slo.ttft_ms = 5.0;
  cfg.slo.token_ms = 2.0;
  return cfg;
}

ServingConfig golden_single_config() {
  ServingConfig cfg = golden_base();
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.scheduler.preempt = PreemptPolicy::kRecomputeYoungest;
  cfg.kv_block_tokens = 4;
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 288 * probe.bytes_per_token_per_node();
  cfg.traffic.arrival_rate_per_s = 1200.0;
  return cfg;
}

FleetConfig golden_bursty_fleet() {
  ServingConfig base = golden_base();
  base.traffic.process = ArrivalProcess::kBursty;
  base.traffic.num_requests = 48;
  base.traffic.arrival_rate_per_s = 400.0;
  base.traffic.burst_factor = 4.0;
  base.traffic.burst_fraction = 0.25;
  base.traffic.burst_period_s = 0.05;
  base.scheduler.max_in_flight = 6;
  FleetConfig cfg = FleetConfig::homogeneous(
      base, 3, BalancerPolicy::kJoinShortestQueue);
  cfg.autoscale.enabled = true;
  cfg.autoscale.eval_interval_ms = 2.0;
  cfg.autoscale.ttft_window_ms = 10.0;
  cfg.autoscale.queue_high = 1.5;
  cfg.autoscale.queue_low = 0.25;
  cfg.autoscale.up_evals = 1;
  cfg.autoscale.down_evals = 2;
  cfg.autoscale.cooldown_evals = 1;
  return cfg;
}

FleetConfig golden_fleet_config() {
  FleetConfig cfg = golden_bursty_fleet();
  cfg.autoscale.policy = ScalePolicy::kQueueDepth;
  cfg.autoscale.min_replicas = 1;
  cfg.autoscale.max_replicas = 3;
  return cfg;
}

FleetConfig golden_disagg_config() {
  FleetConfig cfg = golden_bursty_fleet();
  cfg.kv_link.bytes_per_cycle = 16.0;
  cfg.roles = {ReplicaRole::kPrefill, ReplicaRole::kPrefill,
               ReplicaRole::kDecode};
  cfg.autoscale.policy = ScalePolicy::kHybrid;
  cfg.autoscale.tier_min = {1, 1};
  cfg.autoscale.tier_max = {2, 1};
  return cfg;
}

/// Chunked prefill over the prefix cache: multi-turn chats, so admissions
/// record hits and misses and long prompts split into chunks.
ServingConfig cached_chunked_config() {
  ServingConfig cfg = base_config();
  cfg.model = observe_model();
  cfg.scheduler.policy = BatchPolicy::kChunkedMixed;
  cfg.scheduler.max_tokens_per_iter = 16;
  cfg.kv_block_tokens = 4;
  cfg.prefix_cache = true;
  ChatTrafficConfig chat;
  chat.conversations = 6;
  chat.turns = 3;
  chat.system_prompt_tokens = 32;
  chat.user_turn_tokens = 8;
  chat.reply_tokens = 16;
  cfg.traffic.scripted_shapes = chat_turn_shapes(chat);
  return cfg;
}

/// The preempting config at a third of its KV budget: recompute records
/// pile up past the schedule's headroom.
ServingConfig thrashing_config() {
  ServingConfig cfg = preempting_config();
  KvBlockManager probe(cfg.arch, cfg.model, 1);
  cfg.kv_budget_bytes_per_node = 48 * probe.bytes_per_token_per_node();
  return cfg;
}

std::string exports_of(const Observer& obs) {
  std::ostringstream trace, prom;
  obs.write_chrome_trace(trace);
  obs.write_prometheus(prom);
  return trace.str() + prom.str();
}

TEST(ObserveStorageTest, OpenLoopRunsNeverRegrowTheLog) {
  const auto check = [](const char* name, const FleetConfig& cfg) {
    SCOPED_TRACE(name);
    Observer obs(static_cast<std::uint32_t>(cfg.replicas.size()),
                 cfg.replicas.front().arch.frequency_hz);
    FleetSim(cfg).run(&obs);
    check_observer_invariants(obs);
    EXPECT_GT(obs.reserved(), 0u);
    EXPECT_EQ(obs.log_capacity(), obs.reserved());
    EXPECT_LE(obs.events().size(), obs.reserved());
  };
  check("golden single", FleetConfig::homogeneous(golden_single_config(), 1));
  check("golden fleet", golden_fleet_config());
  check("golden disagg", golden_disagg_config());
  check("chunked + prefix cache",
        FleetConfig::homogeneous(cached_chunked_config(), 1));
}

TEST(ObserveStorageTest, OutgrownReservationKeepsMetricsAndExports) {
  const ServingConfig cfg = thrashing_config();
  const FleetMetrics plain = run_one(cfg);
  Observer first(1, cfg.arch.frequency_hz);
  const FleetMetrics observed = run_one(cfg, &first);
  check_observer_invariants(first);
  ASSERT_GT(first.events().size(), first.reserved())
      << "the run must outgrow its reservation";
  EXPECT_EQ(plain.preemptions, observed.preemptions);
  EXPECT_EQ(plain.recompute_tokens, observed.recompute_tokens);
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.duration_s, observed.duration_s);
  EXPECT_EQ(plain.ttft_ms.p99, observed.ttft_ms.p99);
  EXPECT_EQ(plain.e2e_ms.mean, observed.e2e_ms.mean);
  EXPECT_EQ(plain.inter_token_gap_ms.p99, observed.inter_token_gap_ms.p99);
  Observer second(1, cfg.arch.frequency_hz);
  run_one(cfg, &second);
  EXPECT_EQ(exports_of(first), exports_of(second));
}

// The regrowth path's exports, pinned byte for byte: the thrashing run
// outgrows its reservation and carries many off-clock recompute records
// and nonzero `b` payloads, so this covers the storage the fast path
// never reaches.
TEST(ObserveStorageTest, OutgrownReservationExportsArePinned) {
  const ServingConfig cfg = thrashing_config();
  Observer obs(1, cfg.arch.frequency_hz);
  run_one(cfg, &obs);
  ASSERT_GT(obs.events().size(), obs.reserved());
  ASSERT_GT(count_kind(obs, LifecycleEvent::kRecomputeStart), 0u);
  ASSERT_GT(std::count_if(obs.events().begin(), obs.events().end(),
                          [](const ObservedEvent& e) { return e.b != 0; }),
            0);
  std::ostringstream trace, prom;
  obs.write_chrome_trace(trace);
  obs.write_prometheus(prom);
  EXPECT_EQ(util::sha256_hex(trace.str()),
            "8ed22fc8b7bbae09f3d2e8372c826d130f72e0c93ca0eb4769d7b385f7afd1d7");
  EXPECT_EQ(util::sha256_hex(prom.str()),
            "c2f865e87b9fca958856b4df1840a5bf485a93fa9ff528e6495d044ef2215025");
}

TEST(ObserveStorageTest, ClosedLoopRunReservesNothing) {
  ServingConfig cfg = golden_single_config();
  cfg.traffic.process = ArrivalProcess::kClosedLoop;
  cfg.traffic.clients = 6;
  cfg.traffic.think_time_s = 0.001;
  Observer obs(1, cfg.arch.frequency_hz);
  const FleetMetrics m = run_one(cfg, &obs);
  check_observer_invariants(obs);
  EXPECT_EQ(obs.reserved(), 0u);
  EXPECT_EQ(count_kind(obs, LifecycleEvent::kFinish), m.completed);
}

// ------------------------------------------------- Byte-stable exports

TEST(ObserveExportTest, RepeatedRunsExportIdenticalBytes) {
  const ServingConfig cfg = preempting_config();
  const auto run_and_export = [&cfg](std::string& trace, std::string& prom) {
    Observer obs(1, cfg.arch.frequency_hz);
    run_one(cfg, &obs);
    std::ostringstream t, p;
    obs.write_chrome_trace(t);
    obs.write_prometheus(p);
    trace = t.str();
    prom = p.str();
  };
  std::string trace_a, prom_a, trace_b, prom_b;
  run_and_export(trace_a, prom_a);
  run_and_export(trace_b, prom_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(prom_a, prom_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_FALSE(prom_a.empty());
}

TEST(ObserveExportTest, ChromeTraceCarriesLifecycleAndBreakdown) {
  const ServingConfig cfg = preempting_config();
  Observer obs(1, cfg.arch.frequency_hz);
  run_one(cfg, &obs);
  std::ostringstream os;
  obs.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"simulated-cycles\""), std::string::npos);
  for (const char* cat : {"decode", "recompute", "host-sync"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << cat;
  }
  // Async request spans and preemption instants made it through.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"preempt\""), std::string::npos);
}

TEST(ObserveExportTest, PrometheusEmitsAllCategoriesForEveryReplica) {
  ServingConfig base = base_config();
  const FleetConfig cfg =
      FleetConfig::homogeneous(base, 2, BalancerPolicy::kRoundRobin);
  Observer obs(2, base.arch.frequency_hz);
  FleetSim(cfg).run(&obs);
  std::ostringstream os;
  obs.write_prometheus(os);
  const std::string text = os.str();
  // The per-category counter line set is complete even for categories that
  // never accrued cycles, so scrape-side dashboards see a stable schema.
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (const char* cat : kCategories) {
      const std::string line = "looplynx_replica_cycles_total{replica=\"" +
                               std::to_string(r) + "\",category=\"" + cat +
                               "\"}";
      EXPECT_NE(text.find(line), std::string::npos) << line;
    }
  }
  EXPECT_NE(text.find("# TYPE looplynx_requests_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("looplynx_ttft_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

// ---------------------------------------------- Host-layer exposure

class ObserveHostTest : public ::testing::Test {
 protected:
  static quant::Gpt2Int8Weights make_weights() {
    model::ModelConfig cfg = model::cosim_config();
    cfg.vocab_size = 512;
    const auto w = model::Gpt2Weights::random(cfg, 77);
    util::Rng rng(78);
    std::vector<std::uint32_t> calib(24);
    for (auto& t : calib) {
      t = static_cast<std::uint32_t>(rng.next_below(cfg.vocab_size));
    }
    return quant::Gpt2Int8Weights::build_with_calibration(w, calib);
  }
};

TEST_F(ObserveHostTest, FlushObservedFillsTheBreakdown) {
  const auto weights = make_weights();
  host::Host host(weights, host::Tokenizer::byte_level(),
                  core::ArchConfig::one_node());
  host::ServeRequest req;
  req.prompt = "loop";
  req.max_new_tokens = 6;
  host.submit(req);
  host.submit(req);
  const std::vector<host::ServeResult> results = host.flush_observed();
  ASSERT_EQ(results.size(), 2u);
  for (const host::ServeResult& r : results) {
    ASSERT_FALSE(r.replica_breakdown_ms.empty());
    double total_ms = 0.0;
    for (const auto& [cat, ms] : r.replica_breakdown_ms) {
      EXPECT_GE(ms, 0.0) << cat;
      total_ms += ms;
    }
    EXPECT_GT(total_ms, 0.0);  // categories tile the replica's makespan
  }
  // The plain flush leaves the breakdown empty (observer never built).
  host.submit(req);
  const std::vector<host::ServeResult> plain = host.flush();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_TRUE(plain[0].replica_breakdown_ms.empty());
}

// ------------------------------------------------------- CLI plumbing

TEST(ObserveCliTest, ExportFlagsParseAndValidate) {
  const SchedulerCliOptions off = parse_scheduler_cli(make_cli({}));
  EXPECT_TRUE(off.trace_out.empty());
  EXPECT_TRUE(off.metrics_out.empty());
  EXPECT_FALSE(off.observed());

  const SchedulerCliOptions on = parse_scheduler_cli(make_cli(
      {"--trace-out=/tmp/t.json", "--metrics-out=/tmp/m.prom"}));
  EXPECT_EQ(on.trace_out, "/tmp/t.json");
  EXPECT_EQ(on.metrics_out, "/tmp/m.prom");
  EXPECT_TRUE(on.observed());

  // A bare flag (no path) is a usage error, not a silent no-op.
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--trace-out"})),
               std::invalid_argument);
  EXPECT_THROW(parse_scheduler_cli(make_cli({"--metrics-out"})),
               std::invalid_argument);
}

TEST(ObserveCliTest, WriteExportsRejectsUnwritablePaths) {
  Observer obs(1, 285e6);
  obs.finalize(0);
  EXPECT_NO_THROW(write_exports(obs, "", ""));  // both disabled: no-op
  EXPECT_THROW(
      write_exports(obs, "/nonexistent-dir/trace.json", ""),
      std::runtime_error);
}

}  // namespace
}  // namespace looplynx::serve
