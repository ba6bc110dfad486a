// Span accounting for latency-breakdown reports (paper Fig. 5).
//
// The stage scheduler wraps each MDK invocation in a span; the accumulator
// sums wall-clock cycles per category. Because LoopLynx reuses kernels
// *temporally*, top-level stage spans tile the timeline and the per-category
// totals are exactly the paper's breakdown. Optionally retains the full span
// list for debugging / chrome-trace export.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"

namespace looplynx::sim {

class Trace {
 public:
  struct Span {
    std::string category;
    Cycles begin = 0;
    Cycles end = 0;
  };

  /// If `keep_spans` is false only per-category totals are retained (cheap
  /// enough for full-sequence simulations).
  explicit Trace(bool keep_spans = false) : keep_spans_(keep_spans) {}

  void add(const std::string& category, Cycles begin, Cycles end);

  /// Adds `cycles` to a category without span bookkeeping.
  void add_cycles(const std::string& category, Cycles cycles);

  /// Total cycles attributed to `category` (0 if unknown).
  Cycles total(const std::string& category) const;

  /// Sum over all categories.
  Cycles grand_total() const;

  /// Fraction of the grand total in `category` (0 if empty).
  double fraction(const std::string& category) const;

  const std::map<std::string, Cycles>& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

  void clear();

  /// Merges another trace's totals into this one.
  void merge(const Trace& other);

  /// Writes a "category: cycles (pct%)" summary, descending by cycles.
  void print_summary(std::ostream& os) const;

  /// Exports retained spans as a Chrome-tracing (chrome://tracing /
  /// Perfetto) JSON document on one track (pid 0 / tid 0). Timestamps are
  /// raw simulated cycles (1 trace-µs == 1 cycle) — integers, so the
  /// export is byte-identical across compilers and build modes. Throws
  /// std::logic_error unless the trace was built with keep_spans.
  void export_chrome_trace(std::ostream& os) const;

 private:
  bool keep_spans_;
  std::map<std::string, Cycles> totals_;
  std::vector<Span> spans_;
};

/// Minimal streaming writer for the Chrome trace-event JSON format
/// (chrome://tracing / https://ui.perfetto.dev), shared by
/// Trace::export_chrome_trace and the serve-layer observer export.
///
/// Determinism contract: every timestamp is a raw simulated-cycle count
/// emitted as an integer (the document declares 1 trace-µs == 1 cycle in
/// otherData), so the bytes produced depend only on the event sequence —
/// no doubles, no locale, no wall clock. finish() closes the document and
/// is idempotent; the destructor calls it.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;
  ~ChromeTraceWriter();

  /// Duration event ("ph":"X") on track (pid, tid) over [begin, end].
  void complete(std::string_view name, std::string_view cat,
                std::uint32_t pid, std::uint32_t tid, Cycles begin,
                Cycles end);

  /// Instant event ("ph":"i"); `scope` is "t" (thread), "p" (process) or
  /// "g" (global).
  void instant(std::string_view name, std::string_view cat,
               std::uint32_t pid, std::uint32_t tid, Cycles at,
               char scope = 't');

  /// Async span events ("ph":"b"/"n"/"e"), correlated by `id` within
  /// `cat`.
  void async_begin(std::string_view name, std::string_view cat,
                   std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_instant(std::string_view name, std::string_view cat,
                     std::uint32_t pid, std::uint64_t id, Cycles at);
  void async_end(std::string_view name, std::string_view cat,
                 std::uint32_t pid, std::uint64_t id, Cycles at);

  /// Metadata event naming a process track in the viewer.
  void process_name(std::uint32_t pid, std::string_view name);

  /// Writes the closing brackets (idempotent; no events may follow).
  void finish();

 private:
  /// Starts the next event in the buffer (comma separation).
  void begin_event();
  /// Appends each part to the buffered event: strings verbatim, `char`s
  /// as themselves, other integers in decimal.
  template <typename... Parts>
  void append(const Parts&... parts);
  /// Appends `s` escaped for a JSON string literal.
  void append_escaped(std::string_view s);
  /// Appends `{"name":"<name>","cat":"<cat>"` with both escaped.
  void append_name_cat(std::string_view name, std::string_view cat);
  /// Writes the buffered event to the stream in one call.
  void end_event();
  void async_event(char phase, std::string_view name, std::string_view cat,
                   std::uint32_t pid, std::uint64_t id, Cycles at);

  std::ostream* os_;
  std::string event_;  // the event being formatted, reused across events
  bool first_ = true;
  bool finished_ = false;
};

/// RAII helper: measures engine.now() at construction and attributes the
/// elapsed cycles to `category` on finish().
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, Engine& engine, std::string category)
      : trace_(&trace),
        engine_(&engine),
        category_(std::move(category)),
        begin_(engine.now()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span now (idempotent).
  void finish() {
    if (!finished_) {
      trace_->add(category_, begin_, engine_->now());
      finished_ = true;
    }
  }

  ~ScopedSpan() { finish(); }

 private:
  Trace* trace_;
  Engine* engine_;
  std::string category_;
  Cycles begin_;
  bool finished_ = false;
};

}  // namespace looplynx::sim
