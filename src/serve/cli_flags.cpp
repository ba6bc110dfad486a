#include "serve/cli_flags.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/observe.hpp"

namespace looplynx::serve {

namespace {

/// Narrows a parsed (already range-checked from below) flag value to the
/// 32-bit field it configures: a value that would wrap is rejected rather
/// than silently running as its low bits.
std::uint32_t to_u32(const std::string& flag, long long value) {
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--" + flag + "=" + std::to_string(value) +
                                " does not fit in 32 bits");
  }
  return static_cast<std::uint32_t>(value);
}

/// Splits a --min-replicas/--max-replicas value into per-entry counts: a
/// bare integer is a one-entry list (the legacy scalar form), a comma
/// list names one bound per tier. Non-numeric entries and zeros throw —
/// a bound of 0 would silently pin a tier empty.
std::vector<std::uint32_t> parse_bounds_list(const std::string& flag,
                                             const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    long long value = 0;
    std::size_t used = 0;
    try {
      value = std::stoll(item, &used);
    } catch (const std::exception&) {
      used = item.size() + 1;  // force the error path below
    }
    if (used != item.size() || item.empty()) {
      throw std::invalid_argument(
          "--" + flag + " expects an integer or a comma list of integers, "
          "got \"" + item + "\"");
    }
    if (value < 1) {
      throw std::invalid_argument("--" + flag + " entries must be >= 1");
    }
    out.push_back(to_u32(flag, value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

SchedulerCliOptions parse_scheduler_cli(const util::Cli& cli,
                                        const std::string& default_policy) {
  SchedulerCliOptions opts;
  opts.policy = parse_batch_policy(cli.get_or("policy", default_policy));

  const long long chunk = cli.get_int_or(
      "chunk-tokens", default_chunk_tokens(opts.policy));
  if (chunk < 0) {
    throw std::invalid_argument("--chunk-tokens must be >= 0");
  }
  if (chunk > 0 && opts.policy != BatchPolicy::kChunkedMixed) {
    throw std::invalid_argument(
        "--chunk-tokens=" + std::to_string(chunk) +
        " requires --policy=chunked: the whole-prompt policies never split "
        "prompts, so a token budget would silently degrade into a "
        "batch-member cap");
  }
  opts.chunk_tokens = to_u32("chunk-tokens", chunk);

  opts.preempt = parse_preempt_policy(cli.get_or("preempt", "none"));

  const long long block_tokens = cli.get_int_or("kv-block-tokens", 1);
  if (block_tokens < 1) {
    throw std::invalid_argument(
        "--kv-block-tokens must be >= 1 (1 = token-granular accounting, "
        "bit-identical to the pre-paging whole-footprint reservation)");
  }
  opts.kv_block_tokens = to_u32("kv-block-tokens", block_tokens);

  const long long replicas = cli.get_int_or("replicas", 1);
  if (replicas < 1) {
    throw std::invalid_argument(
        "--replicas must be >= 1 (1 = one replica, byte-identical to the "
        "pre-fleet output)");
  }
  opts.replicas = to_u32("replicas", replicas);

  if (cli.has("autoscale")) {
    if (cli.has("replicas")) {
      throw std::invalid_argument(
          "--autoscale conflicts with --replicas: the autoscaler sizes "
          "the fleet between --min-replicas and --max-replicas, so a "
          "fixed width contradicts it");
    }
    opts.autoscale.enabled = true;
    // Bare --autoscale selects the conservative composite policy.
    const std::string policy = cli.get_or("autoscale", "");
    opts.autoscale.policy =
        policy.empty() ? ScalePolicy::kHybrid : parse_scale_policy(policy);
  } else if (cli.has("min-replicas") || cli.has("max-replicas") ||
             cli.has("scale-interval-ms")) {
    throw std::invalid_argument(
        "--min-replicas/--max-replicas/--scale-interval-ms require "
        "--autoscale: without the control loop they would silently do "
        "nothing");
  }
  if (opts.autoscale.enabled) {
    const double interval_ms = cli.get_double_or("scale-interval-ms", 50.0);
    if (!(interval_ms > 0)) {
      throw std::invalid_argument(
          "--scale-interval-ms must be > 0 (the control loop evaluates on "
          "the fleet clock)");
    }
    opts.autoscale.eval_interval_ms = interval_ms;
  }

  // Bare --prefix-cache / --kv-swap mean "on"; =off (or =0/=false/=no)
  // spells the default explicitly so CI can pin `--prefix-cache=off` output
  // byte-identical to a no-flag run.
  if (cli.has("prefix-cache")) {
    opts.prefix_cache = cli.get_bool_or("prefix-cache", true);
  }
  if (cli.has("kv-swap")) {
    opts.kv_swap = cli.get_bool_or("kv-swap", true);
  }
  if (opts.kv_swap && !opts.prefix_cache) {
    throw std::invalid_argument(
        "--kv-swap requires --prefix-cache: swap-to-host is an eviction "
        "tier of the prefix cache, so without the cache it would silently "
        "do nothing");
  }

  for (const char* flag : {"trace-out", "metrics-out"}) {
    if (!cli.has(flag)) continue;
    const std::string path = cli.get_or(flag, "");
    if (path.empty()) {
      throw std::invalid_argument(
          std::string("--") + flag +
          " needs a file path (--" + flag + "=<path>)");
    }
    (flag[0] == 't' ? opts.trace_out : opts.metrics_out) = path;
  }

  if (const auto balancer = cli.get("balancer")) {
    if (opts.replicas < 2 && !opts.autoscale.enabled) {
      throw std::invalid_argument(
          "--balancer requires --replicas >= 2 or --autoscale: routing "
          "over a single replica is a no-op, so the flag would silently "
          "do nothing");
    }
    opts.balancer = parse_balancer_policy(*balancer);
  }

  if (cli.has("roles")) {
    // With --autoscale the role list itself sizes the pool (the
    // autoscaler scales a live prefix inside each role tier), so
    // --replicas is neither needed nor legal (it already conflicts with
    // --autoscale above). A static disaggregated fleet still needs an
    // explicit matching --replicas.
    if (!opts.autoscale.enabled && opts.replicas < 2) {
      throw std::invalid_argument(
          "--roles requires --replicas >= 2 or --autoscale: KV migration "
          "ships blocks between replicas, so a single-replica fleet has "
          "nowhere to ship");
    }
    const std::string spec = cli.get_or("roles", "");
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string item =
          spec.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      opts.roles.push_back(parse_replica_role(item));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (!opts.autoscale.enabled && opts.roles.size() != opts.replicas) {
      throw std::invalid_argument(
          "--roles must name every replica: got " +
          std::to_string(opts.roles.size()) + " roles for --replicas=" +
          std::to_string(opts.replicas));
    }
  }
  if (opts.autoscale.enabled) {
    // Resolved after --roles so the bounds know whether they are the
    // legacy fleet-wide scalars (symmetric fleet) or per-tier lists
    // (disaggregated fleet; FleetSim::validate checks the list lengths
    // against the tier count and each ceiling against its tier's pool).
    const std::vector<std::uint32_t> mins =
        parse_bounds_list("min-replicas", cli.get_or("min-replicas", "1"));
    const std::vector<std::uint32_t> maxs =
        parse_bounds_list("max-replicas", cli.get_or("max-replicas", "4"));
    if (opts.disaggregated()) {
      if (cli.has("min-replicas")) opts.autoscale.tier_min = mins;
      if (cli.has("max-replicas")) opts.autoscale.tier_max = maxs;
    } else {
      if (mins.size() != 1 || maxs.size() != 1) {
        throw std::invalid_argument(
            "--min-replicas/--max-replicas comma lists are per-tier "
            "bounds and require --roles (a symmetric fleet has one tier)");
      }
      if (maxs.front() < mins.front()) {
        throw std::invalid_argument(
            "--min-replicas exceeds --max-replicas (" +
            std::to_string(mins.front()) + " > " +
            std::to_string(maxs.front()) + ")");
      }
      opts.autoscale.min_replicas = mins.front();
      opts.autoscale.max_replicas = maxs.front();
    }
  }
  if (cli.has("kv-link-gbps") && !opts.disaggregated()) {
    throw std::invalid_argument(
        "--kv-link-gbps requires --roles: the KV-migration fabric only "
        "exists on a disaggregated fleet, so the flag would silently do "
        "nothing");
  }
  if (opts.disaggregated()) {
    opts.kv_link_gbps = cli.get_double_or("kv-link-gbps", 100.0);
    if (!(opts.kv_link_gbps > 0)) {
      throw std::invalid_argument(
          "--kv-link-gbps must be > 0 (a zero-rate link never delivers a "
          "migration)");
    }
  }
  if (opts.observed() && opts.fleet_width() > Observer::kMaxReplicas) {
    throw std::invalid_argument(
        "--trace-out/--metrics-out observe at most " +
        std::to_string(Observer::kMaxReplicas) +
        " replicas (the observer's packed log limit); this fleet has " +
        std::to_string(opts.fleet_width()));
  }
  return opts;
}

FleetConfig build_fleet_config(const SchedulerCliOptions& opts,
                               ServingConfig base) {
  base.scheduler.policy = opts.policy;
  base.scheduler.max_tokens_per_iter = opts.chunk_tokens;
  base.scheduler.preempt = opts.preempt;
  base.kv_block_tokens = opts.kv_block_tokens;
  base.prefix_cache = opts.prefix_cache;
  base.kv_swap = opts.kv_swap;
  FleetConfig fleet =
      FleetConfig::homogeneous(base, opts.fleet_width(), opts.balancer);
  fleet.autoscale = opts.autoscale;
  fleet.roles = opts.roles;
  if (opts.disaggregated()) {
    // GB/s (decimal) -> bytes per fleet-clock cycle.
    fleet.kv_link.bytes_per_cycle =
        opts.kv_link_gbps * 1e9 / base.arch.frequency_hz;
  }
  return fleet;
}

}  // namespace looplynx::serve
