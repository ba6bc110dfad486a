#include "sim/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

namespace looplynx::sim {

void Trace::add(const std::string& category, Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  totals_[category] += end - begin;
  if (keep_spans_) spans_.push_back(Span{category, begin, end});
}

void Trace::add_cycles(const std::string& category, Cycles cycles) {
  totals_[category] += cycles;
}

Cycles Trace::total(const std::string& category) const {
  const auto it = totals_.find(category);
  return it == totals_.end() ? 0 : it->second;
}

Cycles Trace::grand_total() const {
  Cycles sum = 0;
  for (const auto& [_, cycles] : totals_) sum += cycles;
  return sum;
}

double Trace::fraction(const std::string& category) const {
  const Cycles all = grand_total();
  if (all == 0) return 0.0;
  return static_cast<double>(total(category)) / static_cast<double>(all);
}

void Trace::clear() {
  totals_.clear();
  spans_.clear();
}

void Trace::merge(const Trace& other) {
  for (const auto& [category, cycles] : other.totals_) {
    totals_[category] += cycles;
  }
  if (keep_spans_) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
}

void Trace::print_summary(std::ostream& os) const {
  std::vector<std::pair<std::string, Cycles>> sorted(totals_.begin(),
                                                     totals_.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const double all = static_cast<double>(grand_total());
  for (const auto& [category, cycles] : sorted) {
    const double pct = all > 0 ? 100.0 * static_cast<double>(cycles) / all : 0;
    os << "  " << category << ": " << cycles << " cycles (" << pct << "%)\n";
  }
}

void Trace::export_chrome_trace(std::ostream& os) const {
  if (!keep_spans_) {
    throw std::logic_error(
        "Trace::export_chrome_trace requires keep_spans: construct the "
        "trace with Trace(/*keep_spans=*/true)");
  }
  ChromeTraceWriter writer(os);
  for (const Span& span : spans_) {
    writer.complete(span.category, "trace", /*pid=*/0, /*tid=*/0, span.begin,
                    span.end);
  }
  writer.finish();
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(&os) {
  *os_ << "{\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // The time-unit declaration keeps cycle-count timestamps self-describing.
  *os_ << "],\"otherData\":{\"clock\":\"simulated-cycles\","
          "\"timeUnit\":\"1 trace-us == 1 cycle\"}}\n";
}

void ChromeTraceWriter::begin_event() {
  event_.clear();
  if (!first_) event_ += ',';
  first_ = false;
  event_ += '\n';
}

template <typename... Parts>
void ChromeTraceWriter::append(const Parts&... parts) {
  const auto one = [this](const auto& part) {
    using Part = std::decay_t<decltype(part)>;
    if constexpr (std::is_same_v<Part, char>) {
      event_ += part;
    } else if constexpr (std::is_integral_v<Part>) {
      char buf[20];
      event_.append(buf, std::to_chars(buf, buf + sizeof(buf), part).ptr);
    } else {
      event_.append(part);
    }
  };
  (one(parts), ...);
}

void ChromeTraceWriter::append_escaped(std::string_view s) {
  // Plain runs are appended whole; only quotes, backslashes and control
  // characters are expanded.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    event_.append(s.substr(run, i - run));
    run = i + 1;
    if (c == '"') {
      event_ += "\\\"";
    } else if (c == '\\') {
      event_ += "\\\\";
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      event_ += buf;
    }
  }
  event_.append(s.substr(run));
}

void ChromeTraceWriter::append_name_cat(std::string_view name,
                                        std::string_view cat) {
  append("{\"name\":\"");
  append_escaped(name);
  append("\",\"cat\":\"");
  append_escaped(cat);
  append('"');
}

void ChromeTraceWriter::end_event() {
  os_->write(event_.data(), static_cast<std::streamsize>(event_.size()));
}

void ChromeTraceWriter::complete(std::string_view name, std::string_view cat,
                                 std::uint32_t pid, std::uint32_t tid,
                                 Cycles begin, Cycles end) {
  if (end < begin) end = begin;
  begin_event();
  append_name_cat(name, cat);
  append(",\"ph\":\"X\",\"pid\":", pid, ",\"tid\":", tid, ",\"ts\":", begin,
         ",\"dur\":", end - begin, '}');
  end_event();
}

void ChromeTraceWriter::instant(std::string_view name, std::string_view cat,
                                std::uint32_t pid, std::uint32_t tid,
                                Cycles at, char scope) {
  begin_event();
  append_name_cat(name, cat);
  append(",\"ph\":\"i\",\"s\":\"", scope, "\",\"pid\":", pid, ",\"tid\":",
         tid, ",\"ts\":", at, '}');
  end_event();
}

void ChromeTraceWriter::async_event(char phase, std::string_view name,
                                    std::string_view cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  begin_event();
  append_name_cat(name, cat);
  append(",\"ph\":\"", phase, "\",\"id\":", id, ",\"pid\":", pid,
         ",\"tid\":0,\"ts\":", at, '}');
  end_event();
}

void ChromeTraceWriter::async_begin(std::string_view name,
                                    std::string_view cat, std::uint32_t pid,
                                    std::uint64_t id, Cycles at) {
  async_event('b', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_instant(std::string_view name,
                                      std::string_view cat, std::uint32_t pid,
                                      std::uint64_t id, Cycles at) {
  async_event('n', name, cat, pid, id, at);
}

void ChromeTraceWriter::async_end(std::string_view name, std::string_view cat,
                                  std::uint32_t pid, std::uint64_t id,
                                  Cycles at) {
  async_event('e', name, cat, pid, id, at);
}

void ChromeTraceWriter::process_name(std::uint32_t pid,
                                     std::string_view name) {
  begin_event();
  append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", pid,
         ",\"tid\":0,\"args\":{\"name\":\"");
  append_escaped(name);
  append("\"}}");
  end_event();
}

}  // namespace looplynx::sim
