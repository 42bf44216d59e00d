// perfbench: the measuring half of the repository benchmark (run.py is the
// driver that builds it, picks the workload, and checks the outputs).
//
//   perfbench run SUITE.json --jobs N --seconds T --setup-reps K
//                 [--trace TRACE.json [--domains D]] [key=value ...]
//   perfbench selftest
//
// `run` executes one scenario suite through the public API the way
// flexnet_run does (materialize_for_run, then SweepRunner::run) and prints
// one JSON document of raw measurements on stdout:
//   * untraced (no --trace): whole rounds of SweepRunner::run over the grid
//     for as long as another round still fits in T seconds, between two
//     halves of K timed set-ups (each the suite load + materialize plus one
//     Network construction per job, every network freed untimed). Every
//     round must reproduce the first bit for bit.
//   * traced (--trace): per-layer costs, all measured from outside the
//     library: timers around the registry factories and Network
//     construction, one untraced run, one run with telemetry and the
//     runner's job spans written to TRACE.json, and one pass that steps
//     every job's Network directly with a timer around each step() call.
//     The direct pass must reproduce the runner's rows and telemetry
//     counters exactly. With --domains D a last untraced run at
//     sim_domains=D must reproduce the rows too.
// `selftest` prints the all-pairs BFS mean hop count over the Dragonfly
// adjacency at three scales.
//
// Every `key=value` is a config override applied after the suite's base
// block, exactly like flexnet_run's command line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "core/vc_arrangement.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json_report.hpp"
#include "runner/sweep_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/suite.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace flexnet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// One (series, load, seed) job of a materialized suite.
struct Job {
  std::size_t point = 0;
  int seed_index = 0;
  SimConfig config;
};

struct Workload {
  MaterializedSuite suite;
  std::vector<Job> jobs;
};

Workload materialize(const std::string& path, const Options& extra) {
  Workload w{materialize_for_run(path, &extra), {}};
  const std::size_t loads = w.suite.spec.loads.size();
  for (std::size_t s = 0; s < w.suite.grid.size(); ++s)
    for (std::size_t l = 0; l < loads; ++l)
      for (int k = 0; k < w.suite.seeds; ++k)
        w.jobs.push_back({s * loads + l, k,
                          SweepRunner::job_config(w.suite.grid[s].config,
                                                  w.suite.spec.loads[l], k)});
  return w;
}

std::vector<SweepResult> run_grid(const SweepRunner& runner,
                                  const Workload& w) {
  return runner.run(w.suite.grid, w.suite.spec.loads, w.suite.seeds);
}

bool rows_bits_equal(const std::vector<SweepResult>& a,
                     const std::vector<SweepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].rows.size() != b[s].rows.size()) return false;
    for (std::size_t l = 0; l < a[s].rows.size(); ++l)
      if (!result_bits_equal(a[s].rows[l].result, b[s].rows[l].result))
        return false;
  }
  return true;
}

std::string rows_json(const std::vector<SweepResult>& sweeps) {
  std::string out = "[";
  for (const SweepResult& sweep : sweeps)
    for (const SweepRow& row : sweep.rows) {
      const SimResult& r = row.result;
      if (out.size() > 1) out += ",\n  ";
      out += "{\"label\": " + quoted(sweep.label) +
             ", \"load\": " + num(row.load) + ", \"offered\": " +
             num(r.offered) + ", \"accepted\": " + num(r.accepted) +
             ", \"latency\": " + num(r.avg_latency) +
             ", \"hops\": " + num(r.avg_hops) +
             ", \"consumed_packets\": " + std::to_string(r.consumed_packets) +
             ", \"cycles\": " + std::to_string(r.cycles) +
             ", \"deadlock\": " + (r.deadlock ? "true" : "false") + "}";
    }
  return out + "]";
}

/// Workload shape shared by both modes: what the reference computations in
/// run.py need to know about the grid.
std::string shape_json(const Workload& w) {
  const SimConfig& c = w.jobs.front().config;
  const DragonflyParams& df = c.dragonfly;
  return "\"df\": [" +
         std::to_string(df.p) + ", " + std::to_string(df.a) + ", " +
         std::to_string(df.h) + "], \"local_latency\": " +
         std::to_string(c.local_latency) + ", \"global_latency\": " +
         std::to_string(c.global_latency) + ", \"warmup\": " +
         std::to_string(c.warmup) + ", \"measure\": " +
         std::to_string(c.measure) + ", \"seeds\": " +
         std::to_string(w.suite.seeds) + ", \"jobs\": " +
         std::to_string(w.jobs.size());
}

// --- Untraced mode -------------------------------------------------------

/// One set-up as a user pays it before the first simulated cycle: suite
/// load + materialize and one construction of every job's Network. Each
/// network is freed outside the timed region.
double timed_setup(const std::string& path, const Options& extra) {
  const auto t0 = Clock::now();
  const Workload w = materialize(path, extra);
  double total = seconds_since(t0);
  for (const Job& job : w.jobs) {
    const auto t = Clock::now();
    auto net = std::make_unique<Network>(job.config);
    total += seconds_since(t);
    net.reset();
  }
  return total;
}

int run_untraced(const std::string& path, const Options& extra, int jobs,
                 double seconds, int setup_reps) {
  // Half the set-ups run before the rounds and half after, so that their
  // median samples the same stretch of a shared host's time as the rounds
  // do rather than one short window at start-up.
  std::vector<double> setups;
  for (int i = 0; i < setup_reps / 2; ++i)
    setups.push_back(timed_setup(path, extra));

  const Workload w = materialize(path, extra);
  const SweepRunner runner(jobs);
  std::vector<double> walls, cpus;
  std::vector<SweepResult> first;
  bool identical = true;
  const auto start = Clock::now();
  for (;;) {
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<SweepResult> sweeps = run_grid(runner, w);
    walls.push_back(seconds_since(t0));
    cpus.push_back(process_cpu_seconds() - cpu0);
    if (first.empty())
      first = std::move(sweeps);
    else
      identical = identical && rows_bits_equal(first, sweeps);
    if (seconds_since(start) + walls.back() > seconds) break;
  }
  for (int i = setup_reps / 2; i < setup_reps; ++i)
    setups.push_back(timed_setup(path, extra));

  std::string out = "{" + shape_json(w) + ",\n \"mode\": \"untraced\"";
  out += ",\n \"setup_s\": " + num(median(setups));
  out += ",\n \"rounds\": " + std::to_string(walls.size());
  out += ",\n \"wall_s\": " + num(median(walls));
  out += ",\n \"cpu_s\": " + num(median(cpus));
  out += ",\n \"round_wall_s\": [";
  for (std::size_t i = 0; i < walls.size(); ++i)
    out += (i == 0 ? "" : ", ") + num(walls[i]);
  out += "]";
  out += ",\n \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
  out += std::string(",\n \"rounds_identical\": ") +
         (identical ? "true" : "false");
  out += ",\n \"rows\": " + rows_json(first) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// --- Traced mode ---------------------------------------------------------

/// Everything the direct-stepping pass records about one job.
struct SteppedJob {
  SimResult result;
  std::vector<std::int64_t> step_ns;
  std::int64_t grants = 0;
  std::int64_t re_requests = 0;
  std::int64_t consumed = 0;
  std::int64_t router_cycles = 0;
  TelemetryCounters telemetry;
};

/// Simulator::run's warmup / measure / watchdog sequence, with the Network
/// built and stepped here so each call can be timed.
void step_job(const SimConfig& config, SteppedJob& job) {
  Network net(config);
  net.set_telemetry_enabled(true);
  const int nodes = net.topology().num_nodes();
  job.step_ns.reserve(static_cast<std::size_t>(config.warmup + config.measure));

  SimResult& result = job.result;
  Cycle now = 0;
  const auto step = [&]() {
    const auto t0 = Clock::now();
    net.step(now);
    job.step_ns.push_back(ns_between(t0, Clock::now()));
    ++now;
    return net.packets_in_network() > 0 &&
           now - 1 - net.last_grant() > config.watchdog;
  };
  bool deadlock = false;
  while (!deadlock && now < config.warmup) deadlock = step();
  if (!deadlock) {
    net.metrics().begin_window(now);
    const Cycle end = config.warmup + config.measure;
    while (!deadlock && now < end) deadlock = step();
  }
  if (deadlock) {
    // Simulator::run stops on the cycle whose step tripped the watchdog.
    result.deadlock = true;
    result.cycles = now - 1;
  } else {
    net.metrics().end_window(now);
    const Metrics& m = net.metrics();
    result.offered = m.offered_load(nodes);
    result.accepted = m.accepted_load(nodes);
    result.avg_latency = m.latency().mean();
    result.avg_hops = m.hops().mean();
    result.request_latency = m.latency_of(MsgClass::kRequest).mean();
    result.reply_latency = m.latency_of(MsgClass::kReply).mean();
    result.latency_p50 = m.latency_hist().quantile(0.50);
    result.latency_p99 = m.latency_hist().quantile(0.99);
    result.latency_max = static_cast<double>(m.latency_hist().max_value());
    result.consumed_packets = m.consumed_packets();
    result.cycles = now;
  }
  job.grants = net.total_grants();
  job.re_requests = net.re_requests();
  job.consumed = net.metrics().consumed_packets();
  job.router_cycles =
      static_cast<std::int64_t>(job.step_ns.size()) * net.topology().num_routers();
  job.telemetry = net.telemetry();
}

/// Sum of every rendered telemetry line whose name ends in `suffix`
/// (per-link counters have no aggregate accessor).
std::int64_t sum_rendered(const std::string& snapshot, const std::string& suffix) {
  std::istringstream in(snapshot);
  std::string name;
  std::int64_t value = 0, total = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    if (!(fields >> name >> value)) continue;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += value;
  }
  return total;
}

double percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

int run_traced(const std::string& path, const Options& extra, int jobs,
               int setup_reps, const std::string& trace_path, int domains) {
  // Layer build costs, summed over the workload's jobs (median over reps);
  // sim.build_ms is the median single construction.
  std::vector<double> materialize_ms, topology_ms, policy_ms, build_ms;
  for (int i = 0; i < setup_reps; ++i) {
    const auto t0 = Clock::now();
    const Workload w = materialize(path, extra);
    materialize_ms.push_back(1e3 * seconds_since(t0));
    double topo = 0.0, policy = 0.0;
    for (const Job& job : w.jobs) {
      const SimConfig& c = job.config;
      auto t = Clock::now();
      auto topology = topology_registry().at(c.topology).make(c);
      topo += 1e3 * seconds_since(t);
      topology.reset();
      t = Clock::now();
      auto vc_policy =
          vc_policy_registry().at(c.policy).make(VcArrangement::parse(c.vcs));
      policy += 1e3 * seconds_since(t);
      vc_policy.reset();
      t = Clock::now();
      auto net = std::make_unique<Network>(c);
      build_ms.push_back(1e3 * seconds_since(t));
      net.reset();
    }
    topology_ms.push_back(topo);
    policy_ms.push_back(policy);
  }

  const Workload w = materialize(path, extra);

  // 1. Untraced reference run.
  const SweepRunner plain(jobs);
  double cpu0 = process_cpu_seconds();
  auto t0 = Clock::now();
  const std::vector<SweepResult> reference = run_grid(plain, w);
  const double wall_untraced = seconds_since(t0);
  const double cpu_untraced = process_cpu_seconds() - cpu0;

  // 2. Telemetry and runner job spans on.
  TelemetryCounters runner_counters;
  double wall_traced = 0.0, report_ms = 0.0;
  std::vector<SweepResult> traced;
  {
    TraceWriter trace(trace_path);
    if (!trace.ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    SweepRunner runner(jobs);
    runner.set_telemetry(&runner_counters).set_trace(&trace);
    t0 = Clock::now();
    traced = run_grid(runner, w);
    wall_traced = seconds_since(t0);
    // The report flexnet_run writes after the sweep.
    t0 = Clock::now();
    JsonReport report;
    report.set_meta("title", w.suite.spec.title);
    report.add_sweep(w.suite.spec.title, traced, wall_traced);
    report.to_json();
    report_ms = 1e3 * seconds_since(t0);
    trace.close();
  }

  // 3. Direct stepping with a timer around every step() call, on as many
  // threads as the runner used. A job's exception is kept for the caller.
  std::vector<SteppedJob> stepped(w.jobs.size());
  std::vector<std::string> errors(w.jobs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (std::size_t j; (j = next.fetch_add(1)) < w.jobs.size();) {
      try {
        step_job(w.jobs[j].config, stepped[j]);
      } catch (const std::exception& e) {
        errors[j] = e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < jobs; ++i) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors)
    if (!error.empty()) throw std::runtime_error(error);

  const std::size_t loads = w.suite.spec.loads.size();
  std::vector<std::vector<SimResult>> slots(
      w.suite.grid.size() * loads,
      std::vector<SimResult>(static_cast<std::size_t>(w.suite.seeds)));
  TelemetryCounters direct_counters;
  std::vector<std::int64_t> all_steps;
  std::int64_t step_ns = 0, grants = 0, re_requests = 0, consumed = 0,
               router_cycles = 0;
  for (std::size_t j = 0; j < stepped.size(); ++j) {
    SteppedJob& s = stepped[j];
    slots[w.jobs[j].point][static_cast<std::size_t>(w.jobs[j].seed_index)] =
        s.result;
    direct_counters.merge(s.telemetry);
    for (const std::int64_t ns : s.step_ns) step_ns += ns;
    all_steps.insert(all_steps.end(), s.step_ns.begin(), s.step_ns.end());
    s.step_ns = {};
    grants += s.grants;
    re_requests += s.re_requests;
    consumed += s.consumed;
    router_cycles += s.router_cycles;
  }
  const std::vector<SweepResult> direct =
      SweepRunner::reduce_slots(w.suite.grid, w.suite.spec.loads, slots);
  bool identical = rows_bits_equal(reference, traced) &&
                   rows_bits_equal(reference, direct);

  // 4. With --domains: the grid again at that many parallel domains,
  // untraced. Its CPU per wall second is the domains metric; without it,
  // the metric is the untraced run's (the runner's worker parallelism).
  double cpu_per_wall = cpu_untraced / wall_untraced;
  if (domains > 0) {
    Options with = extra;
    with.set("sim_domains", std::to_string(domains));
    const Workload wd = materialize(path, with);
    cpu0 = process_cpu_seconds();
    t0 = Clock::now();
    const std::vector<SweepResult> parallel = run_grid(plain, wd);
    const double wall = seconds_since(t0);
    cpu_per_wall = (process_cpu_seconds() - cpu0) / wall;
    identical = identical && rows_bits_equal(reference, parallel);
  }

  const std::string snapshot = direct_counters.render();
  const bool counters_match = snapshot == runner_counters.render();
  const std::int64_t flits = sum_rendered(snapshot, ".flits");
  const std::int64_t stalls = sum_rendered(snapshot, ".flit_stalls");
  // Packet mode moves each packet across a link as one unit.
  const std::int64_t transfers =
      flits > 0 ? flits : sum_rendered(snapshot, ".delivered_packets");
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double steps = static_cast<double>(direct_counters.steps());
  const double ns = static_cast<double>(step_ns);
  const double cycles = static_cast<double>(all_steps.size());

  std::string out = "{" + shape_json(w) + ",\n \"mode\": \"traced\"";
  out += std::string(",\n \"rounds_identical\": ") +
         (identical ? "true" : "false");
  out += std::string(",\n \"counters_match\": ") +
         (counters_match ? "true" : "false");
  out += ",\n \"wall_untraced_s\": " + num(wall_untraced);
  out += ",\n \"wall_traced_s\": " + num(wall_traced);
  out += ",\n \"workers\": " + std::to_string(jobs);
  out += ",\n \"layers\": {";
  const auto metric = [&](const char* name, double v, bool first = false) {
    out += std::string(first ? "\n  " : ",\n  ") + quoted(name) + ": " + num(v);
  };
  metric("scenario.materialize_ms", median(materialize_ms), true);
  metric("topology.build_ms", median(topology_ms));
  metric("core.policy_build_ms", median(policy_ms));
  metric("sim.build_ms", median(build_ms));
  metric("sim.cycles_per_s", per(cycles, 1e-9 * ns));
  metric("sim.step_us_p50", 1e-3 * percentile(all_steps, 0.50));
  metric("sim.step_us_p99", 1e-3 * percentile(all_steps, 0.99));
  metric("sim.ns_per_router_cycle", per(ns, static_cast<double>(router_cycles)));
  metric("sim.active_links_per_cycle",
         per(static_cast<double>(direct_counters.active_links_sum()), steps));
  metric("sim.send_routers_per_cycle",
         per(static_cast<double>(direct_counters.send_routers_sum()), steps));
  metric("sim.live_packets_per_cycle",
         per(static_cast<double>(direct_counters.live_packets_sum()), steps));
  metric("sim.ns_per_grant", per(ns, static_cast<double>(grants)));
  metric("sim.grants_per_packet",
         per(static_cast<double>(grants), static_cast<double>(consumed)));
  metric("sim.re_requests_per_grant",
         per(static_cast<double>(re_requests), static_cast<double>(grants)));
  metric("sim.conflicts_per_request",
         per(static_cast<double>(direct_counters.total_conflicts()),
             static_cast<double>(direct_counters.total_requests())));
  metric("sim.alloc_routers_per_cycle",
         per(static_cast<double>(direct_counters.alloc_routers_sum()), steps));
  metric("sim.ns_per_packet", per(ns, static_cast<double>(consumed)));
  metric("buffers.ns_per_flit_hop", per(ns, static_cast<double>(transfers)));
  metric("buffers.flit_stalls_per_flit",
         per(static_cast<double>(stalls), static_cast<double>(transfers)));
  metric("runner.report_ms", report_ms);
  metric("domains.cpu_per_wall", cpu_per_wall);
  metric("trace.overhead", per(wall_traced, wall_untraced));
  out += "},\n \"rows\": " + rows_json(reference) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// --- Self-test -----------------------------------------------------------

/// Mean router-hop count of minimal routes over ordered pairs of distinct
/// nodes, by BFS from every router over the topology's port adjacency.
/// Dragonfly minimal routes cross at most one global link, so the search
/// runs over (router, global links used) states: a plain shortest path
/// would also find two-global shortcuts that minimal routing never takes.
double bfs_mean_hops(const Topology& topo) {
  const int routers = topo.num_routers();
  const double p = topo.concentration();
  double total = 0.0;
  std::vector<int> dist(2 * static_cast<std::size_t>(routers));
  std::vector<int> queue(dist.size());
  for (RouterId src = 0; src < routers; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    std::size_t head = 0, tail = 0;
    dist[2 * static_cast<std::size_t>(src)] = 0;
    queue[tail++] = 2 * src;
    while (head < tail) {
      const int state = queue[head++];
      const RouterId r = state / 2;
      const int globals = state % 2;
      for (PortIndex port = 0; port < topo.num_network_ports(r); ++port) {
        const PortDesc& desc = topo.port(r, port);
        const int used = globals + (desc.type == LinkType::kGlobal ? 1 : 0);
        if (used > 1) continue;
        const int next = 2 * desc.neighbor + used;
        if (dist[static_cast<std::size_t>(next)] >= 0) continue;
        dist[static_cast<std::size_t>(next)] =
            dist[static_cast<std::size_t>(state)] + 1;
        queue[tail++] = next;
      }
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(routers); ++r) {
      const int d0 = dist[2 * r], d1 = dist[2 * r + 1];
      total += p * p * (d0 < 0 ? d1 : d1 < 0 ? d0 : std::min(d0, d1));
    }
  }
  const double nodes = topo.num_nodes();
  return total / (nodes * (nodes - 1.0));
}

int run_selftest() {
  std::string out = "{\"bfs\": [";
  const DragonflyParams scales[] = {{2, 4, 2}, {4, 8, 4}, {8, 16, 8}};
  for (const DragonflyParams& df : scales) {
    SimConfig c;
    c.topology = "dragonfly";
    c.dragonfly = df;
    const auto topo = topology_registry().at(c.topology).make(c);
    if (out.back() != '[') out += ", ";
    out += "{\"df\": [" + std::to_string(df.p) + ", " + std::to_string(df.a) +
           ", " + std::to_string(df.h) +
           "], \"mean_hops\": " + num(bfs_mean_hops(*topo)) + "}";
  }
  out += "]}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run SUITE.json --jobs N --seconds T "
               "--setup-reps K [--trace TRACE.json [--domains D]] "
               "[key=value ...]\n"
               "       perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string suite, trace_path;
  int jobs = 1, setup_reps = 1, domains = 0;
  double seconds = 0.0;
  std::vector<const char*> overrides{argv[0]};
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    const bool has_value = i + 1 < argc;
    if (tok == "--jobs" && has_value) {
      jobs = std::max(1, std::atoi(argv[++i]));
    } else if (tok == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (tok == "--setup-reps" && has_value) {
      setup_reps = std::max(1, std::atoi(argv[++i]));
    } else if (tok == "--domains" && has_value) {
      domains = std::max(1, std::atoi(argv[++i]));
    } else if (tok == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (tok.find('=') != std::string::npos) {
      overrides.push_back(argv[i]);
    } else if (tok.rfind("--", 0) != 0 && suite.empty()) {
      suite = tok;
    } else {
      return usage();
    }
  }
  try {
    const Options extra =
        Options::parse(static_cast<int>(overrides.size()), overrides.data());
    if (mode == "selftest") return run_selftest();
    if (mode != "run" || suite.empty()) return usage();
    if (!trace_path.empty())
      return run_traced(suite, extra, jobs, setup_reps, trace_path, domains);
    return run_untraced(suite, extra, jobs, seconds, setup_reps);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
