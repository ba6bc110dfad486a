// Deterministic serve-layer observability: per-request lifecycle event
// log, per-replica cycle-accounting breakdown, and byte-stable exporters
// (Chrome/Perfetto trace-event JSON + Prometheus text exposition).
//
// The Observer is a nullable hook (detail::FleetShared::observer, the same
// pattern as the autoscaler's ttft_window): when absent, the engine room
// never touches it and a run's event sequence — and therefore every byte
// of its output — is identical to an unobserved binary. When attached, all
// recording is pure bookkeeping on the simulated clock: no engine events,
// no wall clock, no allocation that feeds back into scheduling, so an
// observed run produces the *same* FleetMetrics as an unobserved one
// (pinned in tests/test_observe.cpp).
//
// Cycle accounting: each replica's timeline [0, makespan] is partitioned
// into the categories below. Iterations contribute their pipeline
// placement exactly (decode group, prefill chunks by kind, host overhead +
// PCIe sync); scheduler waits are classified at sleep time; whatever
// trails the replica's last activity is "drain". finalize() asserts the
// tiling identity — per replica, the category totals sum to the makespan
// exactly, no gaps, no overlaps (the serve-layer analog of the paper's
// Fig. 5 span accounting in sim::Trace). A span is one 8-byte ledger
// entry and the totals a fixed per-replica array, so a span costs an
// append and an add.
//
// Log order: the fleet runs on one engine, so records stamped at
// engine.now() arrive nondecreasing; record() takes exactly those and
// throws if a stamp goes backwards. The few records stamped off the clock
// (step records at their computed step end, a migrated request's admit
// at its first admission) go through record_off_clock(), which keeps them
// aside with their position in the on-clock log. finalize() sorts only
// that side buffer and merges it in, ties in recording order: exactly the
// order a stable sort of the whole log by cycle gives, in O(n + k log k)
// for n records of which k are off-clock.
//
// Storage: a record is 16 bytes (Record) and a span 8 (see PerReplica),
// and a stamp or replica past kMaxStamp / kMaxReplicas throws instead of
// being truncated. FleetSim::run sizes the log once, before the engine
// starts, for every record an open-loop run's schedule implies (on-clock
// and off-clock alike, since finalize() merges in place) plus headroom
// for preemption and scale records; reserve() only sets capacity, and
// pages reserved but never written never become resident. A run that
// outgrows its reservation (heavy preemption) regrows the log by
// doubling. Closed-loop runs draw their shapes as they go, so they
// reserve nothing and keep the plain doubling growth. The exporters read
// the packed log; events() unpacks it only when called. The span ledger
// grows in fixed chunks without copying, and the trace exporter, its
// only reader, walks it in order.
//
// Determinism rules (DESIGN.md §7): exports are keyed off simulated cycles
// only — every timestamp is an integer cycle count and every millisecond
// figure is derived by integer cycle→microsecond arithmetic, so the
// emitted bytes are identical across compilers, build modes and re-runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace looplynx::serve {

/// The lifecycle event vocabulary. Request-scoped events carry the request
/// id; fleet-scoped events (scale decisions, replica drains) carry
/// kNoRequest and the affected replica index.
enum class LifecycleEvent : std::uint8_t {
  kRoute,          // balancer picked a replica (a = live replicas)
  kArrive,         // enqueue callback fired (a = prefill, b = decode shape)
  kAdmit,          // popped from the queue, KV reserved (a = active after)
  kReject,         // shed (a = 0 queue-full, 1 oversized-for-KV-budget)
  kFirstChunk,     // first prefill chunk executed (a = tokens, b = cursor)
  kChunk,          // subsequent prefill chunk (a = tokens, b = cursor)
  kFirstToken,     // token #1 host-visible (TTFT instant)
  kDecode,         // decode token host-visible (a = tokens so far)
  kPreempt,        // KV dropped (a = tokens dropped, b = preempt count)
  kRecomputeStart, // first re-prefill chunk of a recovery (a = target)
  kRecomputeEnd,   // recovery complete, KV rebuilt (a = recomputed tokens)
  kFinish,         // all decode tokens produced (a = decoded, b = preempts)
  kScaleUp,        // autoscaler activated a replica (a = from, b = to)
  kScaleDown,      // autoscaler deactivated a replica (a = from, b = to)
  kDrain,          // deactivated replica begins draining admitted work
  kCacheHit,       // prefix-cache admission hit (a = tokens, b = blocks)
  kCacheMiss,      // prefix-cache admission found nothing cached
  kKvMigrate,      // KV blocks landed from a prefill replica (a = blocks,
                   // b = source replica); recorded on the receiving replica
  kSteal,          // queued request stolen by an idle replica (a = source
                   // replica); recorded on the thief at delivery
};

/// Stable CLI/export-facing event names ("route", "first-token", ...).
const char* lifecycle_event_name(LifecycleEvent kind);

/// `request` value of fleet-scoped events (scale / drain).
inline constexpr std::uint32_t kNoRequest = 0xffffffffu;

struct ObservedEvent {
  sim::Cycles at = 0;
  LifecycleEvent kind = LifecycleEvent::kArrive;
  std::uint32_t request = kNoRequest;  // fleet-wide id (== injection order)
  std::uint32_t replica = 0;
  std::uint32_t a = 0;  // kind-specific payload, see LifecycleEvent
  std::uint32_t b = 0;
};

/// Cycle-accounting categories. Together they tile each replica's
/// [0, makespan] timeline exactly (asserted by finalize()).
namespace category {
inline constexpr char kPrefill[] = "prefill";          // whole-prompt chunk
inline constexpr char kChunkedPrefill[] = "chunked-prefill";  // partial chunk
inline constexpr char kDecode[] = "decode";            // decode group pass
inline constexpr char kRecompute[] = "recompute";      // post-preempt rebuild
inline constexpr char kHostSync[] = "host-sync";       // overhead + PCIe sync
inline constexpr char kKvStall[] = "kv-stall";  // idle w/ queued, unadmittable
inline constexpr char kKvSwap[] = "kv-swap";  // cache block DMA to/from host
inline constexpr char kKvMigrate[] = "kv-migrate";  // migrated-KV ingest DMA
inline constexpr char kSchedulerIdle[] = "scheduler-idle";  // idle, no work
inline constexpr char kDrain[] = "drain";  // trailing idle until run end
}  // namespace category

/// Every category in canonical (lexicographic) order — the exporters'
/// iteration order, so metric line sets are stable across runs.
inline constexpr const char* kCategories[] = {
    category::kChunkedPrefill, category::kDecode,    category::kDrain,
    category::kHostSync,       category::kKvMigrate, category::kKvStall,
    category::kKvSwap,         category::kPrefill,   category::kRecompute,
    category::kSchedulerIdle,
};
inline constexpr std::size_t kCategoryCount = std::size(kCategories);

/// Interned category ids, in kCategories order: the recording hooks take
/// these, so a span never builds or looks up a name.
enum class CategoryId : std::uint8_t {
  kChunkedPrefill,
  kDecode,
  kDrain,
  kHostSync,
  kKvMigrate,
  kKvStall,
  kKvSwap,
  kPrefill,
  kRecompute,
  kSchedulerIdle,
};

constexpr const char* category_name(CategoryId id) {
  return kCategories[static_cast<std::size_t>(id)];
}
static_assert(category_name(CategoryId::kChunkedPrefill) ==
                  category::kChunkedPrefill &&
              category_name(CategoryId::kDecode) == category::kDecode &&
              category_name(CategoryId::kDrain) == category::kDrain &&
              category_name(CategoryId::kHostSync) == category::kHostSync &&
              category_name(CategoryId::kKvMigrate) == category::kKvMigrate &&
              category_name(CategoryId::kKvStall) == category::kKvStall &&
              category_name(CategoryId::kKvSwap) == category::kKvSwap &&
              category_name(CategoryId::kPrefill) == category::kPrefill &&
              category_name(CategoryId::kRecompute) == category::kRecompute &&
              category_name(CategoryId::kSchedulerIdle) ==
                  category::kSchedulerIdle,
              "CategoryId must index kCategories");

/// One run's observability state. Construct with the run's replica pool
/// width and clock, attach via FleetSim::run(&obs) (or
/// host::Host::flush_observed), then export. Single-use: finalize()
/// runs once, after which the event log and breakdowns are frozen.
class Observer {
 public:
  /// The last cycle the packed log can stamp (2^45 - 1, about 34 h at
  /// 285 MHz): records and span ends past it throw std::invalid_argument.
  static constexpr sim::Cycles kMaxStamp = (sim::Cycles{1} << 45) - 1;
  /// The widest replica pool the packed log can index (a 13-bit field).
  static constexpr std::uint32_t kMaxReplicas = 1u << 13;

  /// Throws std::invalid_argument for 0 or more than kMaxReplicas
  /// replicas, or a frequency that is not positive. Allocates no log or
  /// span storage.
  Observer(std::uint32_t replicas, double frequency_hz);

  std::uint32_t replicas() const {
    return static_cast<std::uint32_t>(per_replica_.size());
  }
  double frequency_hz() const { return frequency_hz_; }

  /// Tags each replica with its role name ("prefill"/"decode"/...), one
  /// per replica. FleetSim::run calls this on disaggregated fleets; the
  /// trace's process names and scale/drain instants then carry the role
  /// and the Prometheus scale counters grow a role label, so exports say
  /// WHICH tier a scale event moved. Never called on symmetric fleets —
  /// their export bytes stay identical to pre-role builds.
  void set_role_names(std::vector<std::string> names);
  const std::vector<std::string>& role_names() const { return role_names_; }

  /// Sets the log's capacity to at least `records` without touching its
  /// contents. FleetSim::run calls this once, before the engine starts,
  /// with the record count an open-loop run's schedule implies.
  void reserve(std::size_t records);
  /// The capacity the last reserve() left the log with (0 if never
  /// called). A log that never outgrew its reservation still has exactly
  /// this capacity after finalize().
  std::size_t reserved() const { return reserved_; }
  /// The packed log's current capacity, in records.
  std::size_t log_capacity() const { return log_.capacity(); }
  /// Throws std::invalid_argument naming the limit when `at` is past
  /// kMaxStamp. FleetSim::run checks an observed schedule with it before
  /// the engine starts.
  static void check_stamp(sim::Cycles at);

  // ---- Recording hooks (engine room only; all O(1) bookkeeping) ----
  /// Records an event stamped on the engine clock. Stamps must be
  /// nondecreasing across calls; a stamp behind the previous one throws
  /// std::logic_error (an off-clock stamp belongs in record_off_clock).
  /// Both recording hooks throw std::invalid_argument for a stamp past
  /// kMaxStamp and std::out_of_range for a replica >= replicas().
  void record(LifecycleEvent kind, sim::Cycles at, std::uint32_t request,
              std::uint32_t replica, std::uint32_t a = 0, std::uint32_t b = 0);
  /// Records an event whose stamp may be ahead of, behind or equal to the
  /// clock. finalize() places it by cycle, after every earlier-recorded
  /// event of the same cycle and before every later-recorded one.
  void record_off_clock(LifecycleEvent kind, sim::Cycles at,
                        std::uint32_t request, std::uint32_t replica,
                        std::uint32_t a = 0, std::uint32_t b = 0);
  /// Attributes [begin, end) of `replica`'s timeline to `cat`. An `end`
  /// past kMaxStamp throws std::invalid_argument.
  void add_span(std::uint32_t replica, CategoryId cat, sim::Cycles begin,
                sim::Cycles end);
  /// The replica's scheduler parks on its work signal; the span is closed
  /// by end_wait() — or, if the wake never comes, by finalize() as drain.
  void begin_wait(std::uint32_t replica, CategoryId cat, sim::Cycles at);
  void end_wait(std::uint32_t replica, sim::Cycles at);
  /// The replica's scheduler loop exited; [at, makespan] becomes drain.
  void mark_exit(std::uint32_t replica, sim::Cycles at);
  /// End-of-run KV gauges (finalize_metrics feeds these).
  void set_kv_stats(std::uint32_t replica, std::uint64_t capacity_blocks,
                    std::uint64_t peak_used_blocks,
                    std::uint32_t block_tokens);

  /// Closes open waits and post-exit tails as drain, asserts the tiling
  /// identity (per replica, the category totals sum to `makespan`
  /// exactly) and merges the off-clock records into the log, which is
  /// then ordered by cycle, ties in recording order. Throws
  /// std::logic_error on violation or double finalize.
  void finalize(sim::Cycles makespan);
  bool finalized() const { return finalized_; }
  sim::Cycles makespan() const { return makespan_; }

  // ---- Inspection (tests and the host-layer breakdown exposure) ----
  /// The lifecycle log, unpacked; complete and time-ordered once
  /// finalize() has run (before that it holds the on-clock records so
  /// far). Built on the first call and rebuilt only when the log has
  /// changed since, so it costs 32 bytes per record only for callers that
  /// ask; a later record or finalize() invalidates the reference.
  const std::vector<ObservedEvent>& events() const;
  /// Category → cycles for one replica, built by finalize(): a category
  /// is present iff a span of it was ever added, even zero-width (the
  /// exporters emit absent ones as 0 explicitly). Throws std::logic_error
  /// before finalize().
  const std::map<std::string, sim::Cycles>& breakdown(
      std::uint32_t replica) const;

  // ---- Exporters (byte-stable; require finalize()) ----
  /// Chrome/Perfetto trace-event JSON: one process track per replica
  /// carrying the cycle-accounting spans, one async span per request with
  /// lifecycle instants, and instant events for preempt/scale/drain
  /// decisions. Timestamps are raw cycles (1 trace-µs == 1 cycle).
  void write_chrome_trace(std::ostream& os) const;
  /// Prometheus text exposition: counters (admissions, rejections,
  /// preemptions, tokens, scale events), gauges (KV block capacity/peak),
  /// per-replica-per-category cycle counters, and TTFT / e2e / queue-wait
  /// histograms over fixed millisecond bucket bounds.
  void write_prometheus(std::ostream& os) const;

 private:
  /// One log record. `word` packs, from the top: the stamp (45 bits),
  /// the replica (13 bits), the kind (5 bits) and whether a nonzero `b`
  /// waits in b_values_ (1 bit). Stamps sit highest, so records compare
  /// by cycle as `word >> kStampShift`.
  struct Record {
    std::uint64_t word = 0;
    std::uint32_t request = kNoRequest;
    std::uint32_t a = 0;

    sim::Cycles at() const { return word >> kStampShift; }
    std::uint32_t replica() const {
      return static_cast<std::uint32_t>(word >> kReplicaShift) &
             (kMaxReplicas - 1);
    }
    LifecycleEvent kind() const {
      return static_cast<LifecycleEvent>((word >> kKindShift) & 0x1f);
    }
    bool has_b() const { return (word & 1) != 0; }
    /// The record unpacked, with `b` (0 unless has_b()) supplied.
    ObservedEvent event(std::uint32_t b = 0) const {
      return ObservedEvent{at(), kind(), request, replica(), a, b};
    }
  };
  static constexpr int kKindShift = 1;
  static constexpr int kReplicaShift = 6;
  static constexpr int kStampShift = 19;
  static_assert(sizeof(Record) == 16);
  static_assert(static_cast<unsigned>(LifecycleEvent::kSteal) < 32,
                "every kind (kSteal is the last) must fit the 5-bit field");
  static_assert(kMaxReplicas == 1u << (kStampShift - kReplicaShift) &&
                    kMaxStamp == ~std::uint64_t{0} >> kStampShift,
                "the fields must tile the 64-bit word");

  /// A span ledger entry is end cycle << 8 | CategoryId, or | kSpanGap
  /// for a gap entry, which only moves the next span's begin to its cycle.
  static constexpr std::uint64_t kSpanGap = 0xff;
  static constexpr std::size_t kSpanChunk = 8192;  // 64 KiB per chunk
  /// An off-clock record, its `b` and the number of on-clock records
  /// before it.
  struct OffClock {
    Record record;
    std::uint32_t b = 0;
    std::size_t position = 0;
  };
  struct PerReplica {
    // Nonzero-width spans in recording order, as ledger entries in chunks
    // reserved to kSpanChunk. An entry holds a span's end and category;
    // its begin is the previous span's end (span_end is the last), and a
    // span that starts elsewhere is preceded by a gap entry (none on
    // disagg-burst). A chunk's pages become resident only as it fills.
    std::vector<std::vector<std::uint64_t>> span_chunks;
    sim::Cycles span_end = 0;
    std::array<sim::Cycles, kCategoryCount> totals{};
    std::array<bool, kCategoryCount> added{};
    std::map<std::string, sim::Cycles> breakdown;  // built by finalize()
    bool waiting = false;
    sim::Cycles wait_start = 0;
    CategoryId wait_category = CategoryId::kSchedulerIdle;
    bool exited = false;
    sim::Cycles exit_at = 0;
    std::uint64_t kv_capacity_blocks = 0;
    std::uint64_t kv_peak_used_blocks = 0;
    std::uint32_t kv_block_tokens = 0;
  };

  /// Appends one ledger entry to `r`'s spans.
  static void push_span(PerReplica& r, std::uint64_t entry);
  /// Packs a record, checking the stamp and replica against the limits.
  Record pack(LifecycleEvent kind, sim::Cycles at, std::uint32_t request,
              std::uint32_t replica, std::uint32_t a, std::uint32_t b) const;
  void require_finalized(const char* what) const;
  /// Merges the off-clock side buffer into the on-clock log (finalize()).
  void merge_off_clock();
  /// Integer microseconds of a cycle count at the run clock (exact integer
  /// arithmetic — the exporters' only unit conversion).
  std::uint64_t cycles_to_us(sim::Cycles c) const;

  double frequency_hz_;
  std::uint64_t frequency_hz_int_;
  std::vector<PerReplica> per_replica_;
  std::vector<std::string> role_names_;  // empty unless disaggregated
  std::vector<Record> log_;  // on-clock until finalize()
  std::vector<std::uint32_t> b_values_;  // nonzero `b`s, in log order
  std::vector<OffClock> off_clock_;
  mutable std::vector<ObservedEvent> events_;  // built by events()
  std::size_t reserved_ = 0;
  bool finalized_ = false;
  sim::Cycles makespan_ = 0;
};

/// Writes the finalized observer's exports to files; an empty path skips
/// that exporter. Throws std::runtime_error when a file cannot be written.
void write_exports(const Observer& observer, const std::string& trace_path,
                   const std::string& metrics_path);

}  // namespace looplynx::serve
