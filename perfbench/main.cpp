// sdvm_perfbench — the measuring half of the SDVM benchmark (run.py builds
// it, runs it and prints the result). It drives the system only through
// its public surface: Cluster::start_program/run/status/install_trace_hook,
// LocalCluster/SimCluster::add_site, SimCluster::loop() and
// microc::compile/decode/Vm::run. Layer numbers come from the counters the
// managers already export and from timing calls made from out here.
//
//   sdvm_perfbench --workload W --seed N --seconds S --trace 0|1
//
// Workloads (see METRICS.md for why each exists):
//   primes_threads  Table 1 app on 4 threaded sites x 1 slot, with a 1x1
//                   reference (and with --trace 1 the stand-alone worklist)
//   fib_threads     fib(24) on 2 threaded sites x 2 slots, same references
//   table1_sim      Table 1 cells p=500, width 10/20, on 1/4/8 sim sites
//
// A run repeats its workload until S wall seconds have passed (at least
// kMinReps times) and reports medians over the repetitions. With --trace 1
// half the time goes to runs with frame-career hooks on every site. The
// last stdout line is one JSON object: attempted/failed runs, whether the
// exact counts repeated across repetitions, and every metric by name.
// Each metric's per-repetition values go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_util.hpp"
#include "api/local_cluster.hpp"
#include "apps/fibonacci.hpp"
#include "apps/primes.hpp"
#include "common/rng.hpp"
#include "frame_trace.hpp"
#include "microc/compiler.hpp"
#include "microc/decode.hpp"
#include "sim/sim_cluster.hpp"
#include "worklist.hpp"

using namespace sdvm;
using perfbench::SiteTrace;
using perfbench::Spans;

namespace {

constexpr int kMinReps = 3;
constexpr Nanos kThreadsTimeout = 120 * kNanosPerSecond;
constexpr Nanos kSimDeadline = 100'000 * kNanosPerSecond;
/// setup_s of the threads workloads is the median of kSetupBatches means
/// of kSetupBatch set-ups without a program run. A threaded set-up takes
/// 1 ms plus 2 ms for each join whose wake-up the engine misses (it then
/// sleeps out its 2 ms timer), so single set-ups fall into modes 2 ms
/// apart. A median of single set-ups flips between modes from run to
/// run; a median of batch means moves smoothly with the miss rate.
constexpr int kSetupBatches = 5;
constexpr int kSetupBatch = 60;

// --- clocks and statistics --------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (user + system, all threads).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct Stopwatch {
  double w0 = wall_now();
  double c0 = cpu_now();
  [[nodiscard]] double wall() const { return wall_now() - w0; }
  [[nodiscard]] double cpu() const { return cpu_now() - c0; }
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- counters the managers export -------------------------------------------

/// Counter values, and histogram sums (as "<name>.sum", nanoseconds),
/// summed over every site through Cluster::status — local introspection,
/// so reading them sends no message.
using Counters = std::map<std::string, double>;

Counters read_counters(Cluster& cluster) {
  Counters out;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto st = cluster.status(i);
    if (!st.is_ok()) continue;
    for (const auto& v : st.value().metrics.values) {
      if (v.kind == metrics::Kind::kCounter) {
        out[v.name] += static_cast<double>(v.count);
      } else if (v.kind == metrics::Kind::kHistogram) {
        out[v.name + ".sum"] += static_cast<double>(v.sum);
      }
    }
  }
  return out;
}

/// Waits until no site is executing a microthread. run() returns as soon
/// as the exit is seen, which can be before the microthread that called
/// exit() is counted in proc.executed.
bool wait_quiescent(Cluster& cluster) {
  for (int polls = 0; polls < 20'000; ++polls) {
    std::int64_t running = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto st = cluster.status(i);
      if (st.is_ok()) running += st.value().metrics.gauge_value("proc.running");
    }
    if (running == 0) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

Counters minus(Counters after, const Counters& before) {
  for (auto& [k, v] : after) {
    auto it = before.find(k);
    if (it != before.end()) v -= it->second;
  }
  return after;
}

double get(const Counters& c, const std::string& k) {
  auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

// --- the result of a whole run ----------------------------------------------

struct Report {
  int attempted = 0;
  int failed = 0;
  bool deterministic = true;
  /// Per metric, one value per repetition; the median is reported.
  std::map<std::string, std::vector<double>> samples;
  /// Metrics reported as computed (already aggregated).
  std::map<std::string, double> values;
  /// Exact counts per repetition, checked for equality at the end.
  std::map<std::string, std::vector<double>> exact;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void count_exact(const std::string& name, double v) {
    exact[name].push_back(v);
  }
  void attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
};

// --- verified program runs --------------------------------------------------

/// Expected output of the primes app: rounds of `width` candidates from 2
/// until the running count reaches p; the app prints that count.
std::int64_t expected_primes_output(std::int64_t p, std::int64_t width) {
  auto is_prime = [](std::int64_t n) {
    if (n < 2) return false;
    for (std::int64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  std::int64_t found = 0;
  for (std::int64_t start = 2;; start += width) {
    for (std::int64_t i = 0; i < width; ++i) found += is_prime(start + i);
    if (found >= p) return found;
  }
}

struct Program {
  ProgramSpec spec;
  std::int64_t expected = 0;  // the one line the program must print

  [[nodiscard]] bool verify(const Result<std::int64_t>& code,
                            const std::vector<std::string>& out) const {
    return code.is_ok() && code.value() == 0 && out.size() == 1 &&
           out[0] == std::to_string(expected);
  }
};

/// One measured run of one cluster configuration.
struct Sample {
  bool ok = false;
  double add_site_ms = 0;  // mean wall time of one add_site call
  double wall_s = 0;       // start_program -> verified exit
  double cpu_s = 0;        // process CPU over the same interval
  double virtual_s = 0;    // sim only: virtual makespan
  double virtual_setup_s = 0;  // sim only: virtual time of the joins
  double build_events = 0; // sim only: events while joining
  double run_events = 0;   // sim only: events while running
  int joins = 0;           // sites that signed on (all but the first)
  Counters built;          // totals after the joins, before the program
  Counters counters;       // delta over the program run
  Spans spans;             // traced runs only
};

/// Installs one SiteTrace per site (the buffers must be in place before
/// any hook can run, so `traces` is filled first).
void install_traces(Cluster& cluster, std::vector<SiteTrace>& traces,
                    std::size_t capacity,
                    const std::function<std::int64_t()>& now) {
  traces.clear();
  traces.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    traces.emplace_back(static_cast<std::uint8_t>(i), capacity);
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    (void)cluster.install_trace_hook(i, traces[i].hook(now));
  }
}

/// Removing the hooks takes each site lock, after which the buffers are
/// safe to read from this thread.
Spans collect_traces(Cluster& cluster, std::vector<SiteTrace>& traces) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    (void)cluster.install_trace_hook(i, nullptr);
  }
  return perfbench::measure_spans(traces);
}

/// Adds `sites` sites one `add(config, index)` call at a time; returns
/// the mean wall ms of one call and whether every site joined.
template <typename AddSite>
bool add_sites(int sites, const SiteConfig& base, double& add_site_ms,
               const AddSite& add) {
  bool joined = true;
  double total_ms = 0;
  for (int i = 0; i < sites; ++i) {
    SiteConfig cfg = base;
    cfg.name = "site" + std::to_string(i + 1);
    Stopwatch one;
    joined = add(cfg, i).joined() && joined;
    total_ms += one.wall() * 1e3;
  }
  add_site_ms = total_ms / sites;
  return joined;
}

bool add_threads_sites(LocalCluster& cluster, int sites, int slots,
                       double& add_site_ms) {
  SiteConfig base;
  base.executor_slots = slots;
  return add_sites(sites, base, add_site_ms,
                   [&](const SiteConfig& cfg, int) -> Site& {
                     return cluster.add_site(cfg);
                   });
}

/// What the seed draws for a simulated Table 1 cluster: the member each
/// joining site signs on through, and the site the program is submitted
/// at. Both are a user's choices, not part of the fabric, and the Table 1
/// cells move by under 0.5 % between draws. Each seed is thus its own
/// exactly repeatable interleaving; all-zero is bench_table1_primes's.
struct SimPlacement {
  std::vector<int> contact;  // contact[i]: index signed on through (i > 0)
  std::size_t home = 0;
};

SimPlacement draw_placement(std::uint64_t seed, int sites) {
  Xoshiro256 rng(seed);
  SimPlacement p;
  p.contact.push_back(0);  // the first site bootstraps
  for (int i = 1; i < sites; ++i) {
    p.contact.push_back(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(i))));
  }
  p.home = rng.below(static_cast<std::uint64_t>(sites));
  return p;
}

LocalCluster::Options threads_options(std::uint64_t seed) {
  LocalCluster::Options options;
  options.seed = seed;
  return options;
}

/// The simulator's default fabric, as bench_table1_primes uses it. It has
/// neither jitter nor loss, so the fabric draws nothing from the seed;
/// a seed's own interleaving comes from its SimPlacement.
sim::SimCluster::Options sim_options(std::uint64_t seed) {
  sim::SimCluster::Options options;
  options.seed = seed;
  return options;
}

Sample run_threads(const Program& prog, int sites, int slots,
                   std::uint64_t seed, std::size_t trace_capacity) {
  Sample s;
  LocalCluster cluster(threads_options(seed));
  if (!add_threads_sites(cluster, sites, slots, s.add_site_ms)) return s;

  s.joins = sites - 1;
  s.built = read_counters(cluster);
  std::vector<SiteTrace> traces;
  if (trace_capacity > 0) {
    install_traces(cluster, traces, trace_capacity, steady_ns);
  }
  Stopwatch run;
  auto pid = cluster.start_program(prog.spec);
  if (!pid.is_ok()) return s;
  auto code = cluster.run(pid.value(), kThreadsTimeout);
  s.ok = prog.verify(code, cluster.outputs(0, pid.value()));
  s.wall_s = run.wall();
  s.cpu_s = run.cpu();
  s.ok = wait_quiescent(cluster) && s.ok;
  if (trace_capacity > 0) s.spans = collect_traces(cluster, traces);
  s.counters = minus(read_counters(cluster), s.built);
  return s;
}

Sample run_sim(const Program& prog, int sites, std::uint64_t seed,
               std::size_t trace_capacity) {
  Sample s;
  sim::SimCluster cluster(sim_options(seed));
  const SimPlacement place = draw_placement(seed, sites);
  const Nanos joins_from = cluster.now();
  if (!add_sites(sites, SiteConfig{}, s.add_site_ms,
                 [&](const SiteConfig& cfg, int i) -> Site& {
                   return cluster.add_site(cfg, place.contact[i]);
                 })) {
    return s;
  }
  s.virtual_setup_s =
      static_cast<double>(cluster.now() - joins_from) / kNanosPerSecond;
  s.build_events = static_cast<double>(cluster.loop().executed());
  s.joins = sites - 1;
  s.built = read_counters(cluster);
  std::vector<SiteTrace> traces;
  if (trace_capacity > 0) {
    install_traces(cluster, traces, trace_capacity,
                   [&cluster] { return cluster.now(); });
  }
  const Nanos v0 = cluster.now();
  Stopwatch run;
  auto pid = cluster.start_program(prog.spec, place.home);
  if (!pid.is_ok()) return s;
  auto code = cluster.run(pid.value(), kSimDeadline);
  s.ok = prog.verify(code, cluster.outputs(place.home, pid.value()));
  s.wall_s = run.wall();
  s.cpu_s = run.cpu();
  s.virtual_s = static_cast<double>(cluster.now() - v0) / kNanosPerSecond;
  s.run_events = static_cast<double>(cluster.loop().executed()) -
                 s.build_events;
  if (trace_capacity > 0) s.spans = collect_traces(cluster, traces);
  s.counters = minus(read_counters(cluster), s.built);
  return s;
}

/// microc::compile + decode over every thread of the program, in ms.
double compile_decode_ms(const ProgramSpec& spec) {
  Stopwatch sw;
  for (const auto& t : spec.threads) {
    auto compiled = microc::compile(t.source, t.name);
    if (!compiled.is_ok() || !microc::decode(compiled.value()).is_ok()) {
      return -1;
    }
  }
  return sw.wall() * 1e3;
}

// --- per-layer metrics shared by the program workloads ----------------------

/// Manager counters of one program run; names follow the managers' own.
/// On the simulator proc.runtime_ns holds charged virtual time, so the
/// VM's shares are only meaningful on threads (`wall_clock`).
/// proc.vm_share is VM dispatch / run_body time, and sits near 1 because
/// runtime_ns spans little besides the VM; proc.vm_cpu_share divides by
/// the process CPU of the whole run, so the machinery around the VM shows.
void add_layer_counters(Report& r, const Sample& s, bool wall_clock) {
  const Counters& c = s.counters;
  for (const char* name :
       {"proc.executed", "proc.trapped", "sched.help_requests_sent",
        "sched.help_frames_received", "sched.cant_help_received",
        "sched.starvation_events", "mem.frames_created", "mem.params_applied",
        "mem.remote_fetches", "msg.sent", "msg.bytes_sent",
        "cluster.heartbeats_sent", "code.compiles",
        "code.binary_fetches", "code.cache_hits"}) {
    r.add(name, get(c, name));
  }
  const double runtime_s = get(c, "proc.runtime_ns.sum") / 1e9;
  const double dispatch_s = get(c, "proc.vm_dispatch_ns.sum") / 1e9;
  r.add("proc.runtime_s", runtime_s);
  r.add("proc.vm_dispatch_s", dispatch_s);
  r.add("proc.vm_share",
        wall_clock && runtime_s > 0 ? dispatch_s / runtime_s : 0);
  r.add("proc.vm_cpu_share",
        wall_clock && s.cpu_s > 0 ? dispatch_s / s.cpu_s : 0);
  const double requests = get(c, "sched.help_requests_sent");
  r.add("sched.help_useful_ratio",
        requests > 0 ? get(c, "sched.help_frames_received") / requests : 0);
  const double executed = get(c, "proc.executed");
  r.add("msg.per_frame", executed > 0 ? get(c, "msg.sent") / executed : 0);
  r.add("api.add_site_ms", s.add_site_ms);
  // The sign-ons, from the counters at the end of the joins.
  r.add("cluster.signon_messages", get(s.built, "cluster.signon_messages"));
  if (s.joins > 0) {
    r.add("msg.sent_per_join", get(s.built, "msg.sent") / s.joins);
    r.add("msg.bytes_per_join", get(s.built, "msg.bytes_sent") / s.joins);
  }
}

void add_span_metrics(Report& r, const Spans& spans) {
  auto put = [&](const std::string& name, const std::vector<double>& v) {
    r.values[name + ".p50"] = quantile(v, 0.50);
    r.values[name + ".p99"] = quantile(v, 0.99);
    r.values[name + ".n"] = static_cast<double>(v.size());
  };
  put("trace.fire_wait_us", spans.fire_wait_us);
  put("trace.code_resolve_us", spans.code_resolve_us);
  put("trace.queue_wait_us", spans.queue_wait_us);
  put("trace.exec_us", spans.exec_us);
  put("trace.help_transfer_us", spans.help_transfer_us);
  r.values["trace.dropped_records"] = static_cast<double>(spans.dropped);
}

/// Repeats `rep` until `seconds` have passed and at least `min_reps` ran.
void repeat(double seconds, int min_reps, const std::function<void()>& rep) {
  Stopwatch sw;
  for (int i = 0; i < min_reps || sw.wall() < seconds; ++i) rep();
}

/// Times `build`, which constructs a cluster and joins its sites (null
/// when a site failed to join), as described at kSetupBatches. Tearing
/// the cluster down is not timed.
double setup_seconds(Report& r,
                     const std::function<std::unique_ptr<Cluster>()>& build) {
  std::vector<double> means;
  for (int b = 0; b < kSetupBatches; ++b) {
    double sum = 0;
    for (int i = 0; i < kSetupBatch; ++i) {
      Stopwatch sw;
      std::unique_ptr<Cluster> cluster = build();
      sum += sw.wall();
      r.attempt(cluster != nullptr, "set-up");
    }
    means.push_back(sum / kSetupBatch);
  }
  return median(means);
}

// --- workloads --------------------------------------------------------------

/// A threaded workload: the cluster configuration under test and a 1-site
/// 1-slot reference of the same program (speed-up). Runs that report the
/// per-layer metrics (`trace`) also run the stand-alone worklist, the
/// baseline of overhead_ratio.
void threads_workload(Report& r, const Program& prog, int sites, int slots,
                      std::uint64_t seed, double seconds, bool trace,
                      std::size_t trace_capacity) {
  std::vector<double> untraced_wall;
  repeat(trace ? seconds / 2 : seconds, trace ? 2 : kMinReps, [&] {
    Sample cl = run_threads(prog, sites, slots, seed, 0);
    r.attempt(cl.ok, "cluster run");
    Sample one = run_threads(prog, 1, 1, seed, 0);
    r.attempt(one.ok, "1-site 1-slot run");
    if (!cl.ok || !one.ok) return;

    const double executed = get(cl.counters, "proc.executed");
    untraced_wall.push_back(cl.wall_s);
    r.add("makespan_s", cl.wall_s);
    r.add("cpu_s", cl.cpu_s);
    r.add("throughput_per_s", executed / cl.wall_s);
    r.add("scaling_efficiency", one.wall_s / cl.wall_s / (sites * slots));
    r.add("speedup", one.wall_s / cl.wall_s);
    r.count_exact("proc.executed", executed);
    r.count_exact("proc.executed", get(one.counters, "proc.executed"));
    if (!trace) return;

    Stopwatch sw;
    perfbench::Worklist wl(prog.spec);
    const bool wl_ok = wl.run() && wl.exit_code() == 0 &&
                       wl.outputs() == std::vector<std::int64_t>{prog.expected};
    const double wl_cpu = sw.cpu();
    r.attempt(wl_ok, "stand-alone worklist run");
    if (!wl_ok) return;
    r.add("overhead_ratio", one.cpu_s / wl_cpu);
    r.add("microc.standalone_cpu_s", wl_cpu);
    r.add("microc.compile_decode_ms", compile_decode_ms(prog.spec));
    add_layer_counters(r, cl, true);
    r.count_exact("proc.executed", static_cast<double>(wl.executed()));
  });
  r.add("setup_s", setup_seconds(r, [&]() -> std::unique_ptr<Cluster> {
    auto cluster = std::make_unique<LocalCluster>(threads_options(seed));
    double add_site_ms = 0;
    if (!add_threads_sites(*cluster, sites, slots, add_site_ms)) {
      return nullptr;
    }
    return cluster;
  }));
  if (!trace) return;

  std::vector<double> traced_wall;
  Spans spans;
  repeat(seconds / 2, 2, [&] {
    Sample cl = run_threads(prog, sites, slots, seed, trace_capacity);
    r.attempt(cl.ok, "traced cluster run");
    if (!cl.ok) return;
    traced_wall.push_back(cl.wall_s);
    spans.add(cl.spans);
  });
  add_span_metrics(r, spans);
  r.values["trace.overhead_ratio"] =
      median(untraced_wall) > 0 ? median(traced_wall) / median(untraced_wall)
                                : 0;
}

void primes_threads(Report& r, std::uint64_t seed, double seconds,
                    bool trace) {
  apps::PrimesParams params;
  params.p = 300;
  params.width = 8;
  params.work_mult = 0;
  params.spin = 50'000;
  Program prog{apps::make_primes_program(params),
               expected_primes_output(params.p, params.width)};
  threads_workload(r, prog, 4, 1, seed, seconds, trace, 200'000);
}

void fib_threads(Report& r, std::uint64_t seed, double seconds, bool trace) {
  apps::FibParams params;
  params.n = 24;
  params.leaf_work = 0;
  Program prog{apps::make_fib_program(params), apps::fib_reference(24)};
  threads_workload(r, prog, 2, 2, seed, seconds, trace, 2'000'000);
}

/// Table 1 cells p=500, width 10 and 20, on 1/4/8 simulated sites, on the
/// fabric bench_table1_primes uses, with the seed's SimPlacement. The
/// 8-site width-20 cell is the headline: its counters and (traced) spans
/// are reported. Its end-to-end numbers, set-up included, are in virtual
/// time, the paper's quantity: the host time of this memory-bound
/// simulation moved by up to 40 % between runs minutes apart on a shared
/// host, while virtual time moves only when the system's decisions
/// change. The host cost of simulating is reported per layer as cpu_s,
/// sim.ns_per_event_build/run and api.add_site_ms.
void table1_sim(Report& r, std::uint64_t seed, double seconds, bool trace) {
  const std::vector<std::int64_t> widths = {10, 20};
  const std::vector<int> site_counts = {1, 4, 8};
  std::vector<Program> progs;
  for (std::int64_t w : widths) {
    apps::PrimesParams params;
    params.p = 500;
    params.width = w;
    params.work_mult = bench::kPaperWorkMult;
    progs.push_back(
        Program{apps::make_primes_program(params),
                expected_primes_output(params.p, params.width)});
  }
  const Program& headline = progs.back();

  std::vector<double> untraced_wall;
  repeat(trace ? seconds / 2 : seconds, trace ? 2 : kMinReps, [&] {
    std::map<int, Sample> w20;
    bool ok = true;
    for (std::size_t w = 0; w < widths.size(); ++w) {
      for (int n : site_counts) {
        Sample s = run_sim(progs[w], n, seed, 0);
        const std::string cell = "w=" + std::to_string(widths[w]) +
                                 " sites=" + std::to_string(n);
        r.attempt(s.ok, "table1 cell p=500 " + cell);
        ok = ok && s.ok;
        r.count_exact("virtual_s " + cell, s.virtual_s);
        r.count_exact("virtual_setup_s " + cell, s.virtual_setup_s);
        if (widths[w] == 20) w20[n] = std::move(s);
      }
    }
    if (!ok) return;
    const Sample& head = w20[8];
    untraced_wall.push_back(head.wall_s);
    const double speedup = w20[1].virtual_s / head.virtual_s;
    r.add("makespan_s", head.virtual_s);
    r.add("setup_s", head.virtual_setup_s);
    r.add("throughput_per_s",
          get(head.counters, "proc.executed") / head.virtual_s);
    r.add("scaling_efficiency", speedup / 8);
    r.add("speedup", speedup);
    r.add("cpu_s", head.cpu_s);
    r.add("sim.events_build", head.build_events);
    r.add("sim.events_run", head.run_events);
    r.add("sim.ns_per_event_build",
          head.add_site_ms * (head.joins + 1) * 1e6 / head.build_events);
    r.add("sim.ns_per_event_run", head.wall_s * 1e9 / head.run_events);
    r.add("microc.compile_decode_ms", compile_decode_ms(headline.spec));
    add_layer_counters(r, head, false);
    r.count_exact("sim.events_build", head.build_events);
    r.count_exact("sim.events_run", head.run_events);
    r.count_exact("msg.sent_per_join",
                  get(head.built, "msg.sent") / head.joins);
    r.count_exact("proc.executed", get(head.counters, "proc.executed"));
  });
  if (!trace) return;

  std::vector<double> traced_wall;
  Spans spans;
  repeat(seconds / 2, 2, [&] {
    Sample s = run_sim(headline, 8, seed, 100'000);
    r.attempt(s.ok, "traced table1 cell");
    if (!s.ok) return;
    traced_wall.push_back(s.wall_s);
    r.count_exact("virtual_s w=20 sites=8", s.virtual_s);
    spans.add(s.spans);
  });
  add_span_metrics(r, spans);
  r.values["trace.overhead_ratio"] =
      median(untraced_wall) > 0 ? median(traced_wall) / median(untraced_wall)
                                : 0;
}

void print_report(const std::string& workload, Report& r) {
  std::map<std::string, double> metrics = r.values;
  for (const auto& [name, v] : r.samples) {
    metrics[name] = median(v);
    std::fprintf(stderr, "%s:", name.c_str());
    for (double x : v) std::fprintf(stderr, " %.6g", x);
    std::fprintf(stderr, "\n");
  }
  for (const auto& [name, v] : r.exact) {
    if (std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) !=
        v.end()) {
      r.deterministic = false;
      std::fprintf(stderr, "NOT DETERMINISTIC: %s varies:", name.c_str());
      for (double x : v) std::fprintf(stderr, " %.17g", x);
      std::fprintf(stderr, "\n");
    }
  }
  std::printf("{\"workload\": \"%s\", \"attempted\": %d, \"failed\": %d, "
              "\"deterministic\": %s, \"metrics\": {",
              workload.c_str(), r.attempted, r.failed,
              r.deterministic ? "true" : "false");
  const char* sep = "";
  for (const auto& [name, v] : metrics) {
    std::printf("%s\"%s\": %.10g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload primes_threads|fib_threads|table1_sim "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return usage(argv[0]);

  Report r;
  if (workload == "primes_threads") {
    primes_threads(r, seed, seconds, trace);
  } else if (workload == "fib_threads") {
    fib_threads(r, seed, seconds, trace);
  } else if (workload == "table1_sim") {
    table1_sim(r, seed, seconds, trace);
  } else {
    return usage(argv[0]);
  }
  print_report(workload, r);
  return 0;
}
