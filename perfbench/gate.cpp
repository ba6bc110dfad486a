// The correctness gate every benchmark run passes before its timings
// count.
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "expected.hpp"

namespace perfbench {

using namespace looplynx;

Signature signature_of(const serve::FleetResult& r) {
  Signature s;
  s.completed = r.fleet.completed;
  s.rejected = r.fleet.rejected;
  s.iterations = r.fleet.iterations;
  s.makespan_s = r.fleet.duration_s;
  s.ttft_p99_ms = r.fleet.ttft_ms.p99;
  s.cache_hit_tokens = r.fleet.cache_hit_tokens;
  s.fabric_bytes = r.fabric_bytes;
  s.scale_events = r.scale_events.size();
  return s;
}

bool same(const Signature& a, const Signature& b) {
  return a.completed == b.completed && a.rejected == b.rejected &&
         a.iterations == b.iterations &&
         std::memcmp(&a.makespan_s, &b.makespan_s, sizeof(double)) == 0 &&
         std::memcmp(&a.ttft_p99_ms, &b.ttft_p99_ms, sizeof(double)) == 0 &&
         a.cache_hit_tokens == b.cache_hit_tokens &&
         a.fabric_bytes == b.fabric_bytes && a.scale_events == b.scale_events;
}

std::string describe(const Signature& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %.17g, %.17g, %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "}",
                s.completed, s.rejected, s.iterations, s.makespan_s,
                s.ttft_p99_ms, s.cache_hit_tokens, s.fabric_bytes,
                s.scale_events);
  return buf;
}

std::vector<std::string> check(const Workload& w, std::uint64_t seed,
                               const serve::FleetResult& r) {
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) { failures.push_back(what); };
  const std::uint64_t generated = w.config.traffic.explicit_arrivals.size();
  const serve::FleetMetrics& f = r.fleet;
  if (f.offered != generated) {
    fail("offered " + std::to_string(f.offered) + " != generated " +
         std::to_string(generated));
  }
  if (f.completed + f.rejected != f.offered) {
    fail("completed + rejected " + std::to_string(f.completed + f.rejected) +
         " != offered " + std::to_string(f.offered));
  }
  for (std::size_t i = 0; i < r.replicas.size(); ++i) {
    const serve::FleetMetrics& m = r.replicas[i];
    if (m.completed + m.rejected + m.handoffs_out !=
        m.offered + m.handoffs_in) {
      fail("replica " + std::to_string(i) + " loses requests");
    }
  }
  if (f.kv_over_release_events != 0 || f.kv_blocks_in_use_at_end != 0) {
    fail("KV accounting leaked or over-released blocks");
  }
  const Signature got = signature_of(r);
  for (const Expected& e : kExpected) {
    if (w.name == e.workload && e.seed == seed && !same(e.outputs, got)) {
      fail("outputs " + describe(got) + " != committed " + describe(e.outputs));
    }
  }
  return failures;
}

}  // namespace perfbench
