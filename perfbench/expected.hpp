// Committed deterministic outputs at the default seed (1) and the
// held-out seed (2), one row per workload and seed:
//   {completed, rejected, iterations, makespan_s, ttft_p99_ms,
//    cache_hit_tokens, fabric_bytes, scale_events}
// A simulator-only change must reproduce these bit for bit. A change to
// the modelled system that moves them updates this table, with the reason
// in CHANGES.md. Each run prints its row ("outputs ...") to copy from.
#pragma once

#include "bench.hpp"

namespace perfbench {

struct Expected {
  const char* workload;
  std::uint64_t seed;
  Signature outputs;
};

inline const Expected kExpected[] = {
    {"fleet-mixed", 1,
     {40000, 0, 10890874, 20027.315908761404, 618.18773410526387, 0, 0, 0}},
    {"fleet-mixed", 2,
     {40000, 0, 10859930, 19905.341124936844, 587.13181154386041, 0, 0, 0}},
    {"chat-cache", 1,
     {3200, 0, 626271, 4283.8498058666664, 1590.3065794035067, 660992, 0, 0}},
    {"chat-cache", 2,
     {3200, 0, 631821, 4260.1472001228067, 1656.1451223157878, 662224, 0, 0}},
    {"disagg-burst", 1,
     {6000, 0, 530801, 3905.75, 1800.5430262105276, 0, 23876868608,
      1566}},
    {"disagg-burst", 2,
     {6000, 0, 511362, 4043.0999999999999, 1803.0173056842109, 0,
      23515895808, 1674}},
};

}  // namespace perfbench
