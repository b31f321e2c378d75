// Copyright (c) 2026 lrsim authors. MIT license.
//
// lrbench: runs one rep of one benchmark workload through the library's
// public API and prints one JSON object of raw measurements on stdout.
// benchmark/run.py runs one lrbench process per rep and turns the raw
// numbers into the metrics BENCHMARK.json declares.
//
//   lrbench WORKLOAD.toml [--seed N] [--check | --quick] [--trace]
//
// A workload file is a [workload] section (workload::parse_workload_spec)
// plus a [bench] section holding `threads` and `policy`. --check and
// --quick replace [workload] keys with the file's [check] / [quick] keys;
// --check also arms the protocol invariant checker before build, so the
// prefill is checked too. --trace arms observability after build (so it
// covers the timed phase only, like bench/harness.hpp) and adds the
// histograms plus isolated timings of the key sampler and the timer wheel.
//
// Host times are taken around the public calls of each layer: the Machine
// constructor, the registry's build (which runs any prefill) and
// Machine::run, which runs in slices with a Probe chunk between them.
// Nothing inside src/ is instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/machine.hpp"
#include "util/timer_wheel.hpp"
#include "workload/config.hpp"
#include "workload/registry.hpp"
#include "workload/spec.hpp"

namespace {

using namespace lrsim;
using namespace lrsim::workload;
using Clock = std::chrono::steady_clock;

/// Same watchdog as bench/harness.hpp: far beyond any workload here, so
/// hitting it means a hang, which run.py reports as a failure.
constexpr Cycle kWatchdog = 4'000'000'000ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every Stats counter by name, so run.py can compare reps field by field.
constexpr std::pair<const char*, std::uint64_t Stats::*> kStatsFields[] = {
    {"msgs_gets", &Stats::msgs_gets},
    {"msgs_getx", &Stats::msgs_getx},
    {"msgs_inv", &Stats::msgs_inv},
    {"msgs_downgrade", &Stats::msgs_downgrade},
    {"msgs_data", &Stats::msgs_data},
    {"msgs_ack", &Stats::msgs_ack},
    {"msgs_wb", &Stats::msgs_wb},
    {"msgs_nack", &Stats::msgs_nack},
    {"l1_hits", &Stats::l1_hits},
    {"l1_misses", &Stats::l1_misses},
    {"l1_evictions", &Stats::l1_evictions},
    {"l2_accesses", &Stats::l2_accesses},
    {"l2_evictions", &Stats::l2_evictions},
    {"dram_accesses", &Stats::dram_accesses},
    {"leases_taken", &Stats::leases_taken},
    {"releases_voluntary", &Stats::releases_voluntary},
    {"releases_involuntary", &Stats::releases_involuntary},
    {"releases_evicted", &Stats::releases_evicted},
    {"releases_broken", &Stats::releases_broken},
    {"leases_suppressed", &Stats::leases_suppressed},
    {"lease_adapt_grow", &Stats::lease_adapt_grow},
    {"lease_adapt_shrink", &Stats::lease_adapt_shrink},
    {"probes_queued", &Stats::probes_queued},
    {"probe_queued_cycles", &Stats::probe_queued_cycles},
    {"probes_coarse", &Stats::probes_coarse},
    {"ops_completed", &Stats::ops_completed},
    {"cas_attempts", &Stats::cas_attempts},
    {"cas_failures", &Stats::cas_failures},
    {"lock_acquisitions", &Stats::lock_acquisitions},
    {"lock_failed_trylocks", &Stats::lock_failed_trylocks},
    {"txn_commits", &Stats::txn_commits},
    {"txn_aborts", &Stats::txn_aborts},
};
static_assert(std::size(kStatsFields) == kStatsCounterCount,
              "Stats gained a counter: add it to kStatsFields");

/// Minimal JSON object writer: keys are fixed identifiers, values numbers,
/// plain strings, or pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return raw(key, os.str());
  }
  JsonObject& num(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// A "Vm...:" field of /proc/self/status in KiB. Peak RSS is read from
/// VmHWM, not getrusage's ru_maxrss: Linux carries the parent's peak across
/// exec, so a small workload would report the runner's footprint.
std::uint64_t status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stoull(line.substr(field.size()));
  }
  throw std::runtime_error("no " + field + " line in /proc/self/status");
}

std::string histogram_json(const Log2Histogram& h) {
  std::string out = "[";
  for (int b = 0; b < Log2Histogram::kBuckets; ++b)
    out += (b == 0 ? "" : ", ") + std::to_string(h.count(b));
  return out + "]";
}

/// The [workload] section with every key that `section` also sets replaced
/// by that section's value.
ConfigFile with_overrides(const ConfigFile& cfg, const std::string& section) {
  if (!cfg.has_section(section))
    throw std::invalid_argument(cfg.origin() + ": no [" + section + "] section");
  std::set<std::string> keys;
  for (const std::string& k : cfg.keys("workload")) keys.insert(k);
  for (const std::string& k : cfg.keys(section)) keys.insert(k);
  std::ostringstream text;
  text << "[workload]\n";
  for (const std::string& k : keys)
    text << k << " = \"" << (cfg.has(section, k) ? cfg.get(section, k) : cfg.get("workload", k))
         << "\"\n";
  return ConfigFile::parse_string(text.str(), cfg.origin() + " [" + section + "]");
}

/// Nanoseconds per KeySampler::sample at the workload's key distribution
/// (best of three passes). Keyless workloads never sample; for them this
/// times the spec's default distribution, which they do not use.
double time_key_sampler(const WorkloadSpec& spec, int threads, std::uint64_t& sink) {
  KeySampler sampler(spec.dist, spec.key_range, threads);
  Rng rng(spec.seed);
  constexpr int kSamples = 1 << 20;
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSamples; ++i) sink += sampler.sample(rng);
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / kSamples;
}

/// Nanoseconds per served open-loop op in the timer wheel alone: one pop
/// plus one re-insert, at this workload's clients-per-core occupancy and
/// inter-arrival gaps (best of three passes). Closed-loop workloads never
/// use the wheel; for them this times one client per core with a fixed gap
/// of think + 1 cycles.
double time_timer_wheel(const WorkloadSpec& spec, int threads, std::uint64_t& sink) {
  const int clients = spec.clients == 0 ? threads : spec.clients;
  const int per_core = (clients + threads - 1) / threads;
  const ArrivalSpec arrival = spec.arrival.open_loop()
                                  ? spec.arrival
                                  : ArrivalSpec{ArrivalKind::kFixed, spec.think + 1};
  constexpr int kOps = 1 << 20;
  Rng rng(spec.seed);
  std::vector<Cycle> gaps(kOps);
  for (Cycle& g : gaps) g = next_gap(arrival, rng);
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    TimerWheel wheel;
    wheel.reserve(static_cast<std::size_t>(per_core));
    for (int k = 0; k < per_core; ++k)
      wheel.insert(static_cast<TimerWheel::Id>(k), gaps[static_cast<std::size_t>(k) % gaps.size()]);
    const auto t0 = Clock::now();
    for (const Cycle gap : gaps) {
      const auto [when, id] = wheel.pop();
      wheel.insert(id, when + gap);
      sink += id;
    }
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 / kOps;
}

/// A fixed reference kernel, timed in short chunks right beside the
/// measured work. On a shared host, neighbours' traffic in the shared L3
/// slows the simulator by up to 2x over minutes; the kernel, a binary-heap
/// event queue plus random read-modify-writes over a table four times the
/// per-core L2, is slowed by the same contention at the same moments, so
/// run.py scales the host times by its speed (README, "Noise").
/// It lives here, not in src/, so no change to the library can move it.
class Probe {
 public:
  /// Steps per chunk: about a millisecond.
  static constexpr int kChunk = 1 << 13;

  Probe() : table_(kTable, 1) {
    Rng rng(12345);
    for (std::size_t i = 0; i < kQueue; ++i) queue_.push(rng.next_below(1 << 16));
  }

  /// Runs one chunk and adds its time to `seconds`.
  void chunk(double& seconds) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kChunk; ++i) {
      const std::uint64_t when = queue_.top();
      queue_.pop();
      std::uint32_t& slot = table_[(when * 0x9e3779b97f4a7c15ull >> 11) % kTable];
      slot = slot * 3 + static_cast<std::uint32_t>(i);
      queue_.push(when + 1 + (slot & 1023));
    }
    seconds += seconds_since(t0);
    ++chunks_;
  }

  std::uint64_t steps() const { return chunks_ * kChunk; }
  std::uint64_t sink() const { return queue_.top() + table_[kTable / 2]; }

 private:
  static constexpr std::size_t kQueue = 1 << 14;
  static constexpr std::size_t kTable = 1 << 21;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> queue_;
  std::vector<std::uint32_t> table_;
  std::uint64_t chunks_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  bool check = false;
  bool quick = false;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      a.check = true;
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      const std::string v = argv[++i];
      std::size_t pos = 0;
      try {
        a.seed = std::stoull(v, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos == 0 || pos != v.size()) throw std::invalid_argument("bad --seed `" + v + "`");
      a.has_seed = true;
    } else if (!arg.empty() && arg[0] != '-' && a.workload.empty()) {
      a.workload = arg;
    } else {
      throw std::invalid_argument("unexpected argument `" + arg + "`");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("missing workload file");
  if (a.check && a.quick) throw std::invalid_argument("--check and --quick are exclusive");
  return a;
}

int run(const Args& args) {
  const ConfigFile file = ConfigFile::parse_file(args.workload);
  for (const std::string& k : file.keys("bench")) {
    if (k != "threads" && k != "policy")
      throw std::invalid_argument(file.origin() + ": unknown [bench] key `" + k + "`");
  }
  if (!file.has("bench", "threads") || !file.has("bench", "policy"))
    throw std::invalid_argument(file.origin() + ": [bench] needs threads and policy");
  const int threads = static_cast<int>(file.get_int("bench", "threads", 0));
  const std::string policy = file.get("bench", "policy");

  const ConfigFile cfg = args.check   ? with_overrides(file, "check")
                         : args.quick ? with_overrides(file, "quick")
                                      : file;
  WorkloadSpec spec = parse_workload_spec(cfg);
  if (args.has_seed) spec.seed = args.seed;

  WorkloadRun wl = make_workload(spec, policy);
  MachineConfig mc;
  mc.num_cores = threads;
  wl.configure(mc);

  // The probe's own footprint is subtracted from the peak RSS below.
  const std::uint64_t rss_before_probe = status_kb("VmRSS:");
  Probe probe;
  const std::uint64_t probe_kb = status_kb("VmRSS:") - rss_before_probe;
  double warmup_s = 0;
  probe.chunk(warmup_s);
  double probe_setup_s = 0;
  probe.chunk(probe_setup_s);

  const auto t_ctor = Clock::now();
  Machine m{mc, spec.seed};
  const double ctor_s = seconds_since(t_ctor);
  if (args.check) m.enable_invariants();

  const auto t_build = Clock::now();
  auto worker = wl.build(m);
  const double build_s = seconds_since(t_build);
  probe.chunk(probe_setup_s);
  const std::uint64_t probe_setup_steps = 2 * Probe::kChunk;
  const std::uint64_t probe_steps_before_run = probe.steps();
  if (args.trace) m.enable_observability();

  const Stats before = m.total_stats();
  const std::uint64_t events_before = m.events().total_scheduled();
  const Cycle start = m.events().now();
  for (int t = 0; t < threads; ++t) m.spawn(t, [worker, t](Ctx& ctx) { return worker(ctx, t); });

  // Machine::run in slices of 10-40 ms, a probe chunk after each. Stopping
  // at a slice horizon is invisible to the simulation: cycles and Stats are
  // the same as one unbounded run (run.py checks this across reps). Only
  // the scheduled-event count can grow by a few, where the horizon makes
  // the inline fast path decline an advance.
  const Cycle horizon = start + kWatchdog;
  Cycle slice = 1 << 14;
  double run_s = 0;
  double probe_run_s = 0;
  while (!m.all_done() && !m.events().empty() && m.events().now() < horizon) {
    const auto t0 = Clock::now();
    m.run(std::min(m.events().now() + slice, horizon));
    const double dt = seconds_since(t0);
    run_s += dt;
    if (dt < 0.01) {
      slice *= 2;
    } else if (dt > 0.04 && slice > 1024) {
      slice /= 2;
    }
    probe.chunk(probe_run_s);
  }

  const Stats stats = m.total_stats() - before;
  const int clients = spec.clients == 0 ? threads : spec.clients;

  JsonObject stats_json;
  for (const auto& [name, field] : kStatsFields) stats_json.num(name, stats.*field);

  JsonObject out;
  out.str("build_type",
#ifdef NDEBUG
          "release"
#else
          "debug"
#endif
          )
      .str("ds", spec.ds)
      .str("policy", policy)
      .num("threads", static_cast<std::uint64_t>(threads))
      .num("seed", spec.seed)
      .num("expected_ops", static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(spec.ops))
      .num("finished", static_cast<std::uint64_t>(m.all_done() ? 1 : 0))
      .num("cycles", m.events().now() - start)
      .num("events", m.events().total_scheduled() - events_before)
      .num("dir_peak_queue", static_cast<std::uint64_t>(m.directory().peak_queue_depth()))
      .num("machine_ctor_s", ctor_s)
      .num("build_s", build_s)
      .num("run_s", run_s)
      .num("probe_setup_s", probe_setup_s)
      .num("probe_setup_steps", probe_setup_steps)
      .num("probe_run_s", probe_run_s)
      .num("probe_run_steps", probe.steps() - probe_steps_before_run)
      .num("probe_sink", probe.sink())
      .num("peak_rss_kb", status_kb("VmHWM:") - probe_kb)
      .num("messages", stats.total_messages())
      .num("energy_nj", stats.energy_nj())
      .raw("stats", stats_json.render());

  if (args.trace) {
    const Observability& obs = *m.observability();
    std::uint64_t sink = 0;
    out.raw("park_hist", histogram_json(obs.park_latency_histogram()))
        .raw("lease_hold_hist", histogram_json(obs.lease_duration_histogram()))
        .raw("granted_lease_hist", histogram_json(obs.effective_lease_histogram()))
        .num("host_ns_per_key_sample", time_key_sampler(spec, threads, sink))
        .num("host_ns_per_wheel_op", time_timer_wheel(spec, threads, sink))
        .num("sink", sink);
  }
  std::cout << out.render() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lrbench: " << e.what() << "\n";
    return 1;
  }
}
