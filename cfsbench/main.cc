// cfsbench: one named CFS workload, single process, single thread.
//
//   cfsbench --workload <meta_mix|file_lifecycle|overwrite_gray> --seed N
//            --seconds S --trace <0|1>
//
// A run repeats rounds until S host seconds have passed. A round builds a
// fresh cluster (set-up), runs the workload's closed loop (timed phase),
// lets background work settle and checks every output (verify), and tears
// the cluster down. Rounds cycle through the workload's input_sets() input
// seeds derived from N; rounds of one input seed are identical in virtual
// time. The virtual metrics pool the per-call samples of one round per input
// seed; the host-time metrics are medians over the rounds after the first,
// which warms the process up.
//
// Host time is the thread's CPU time, in reference seconds: each round runs
// units of a fixed calibration loop before and after it and every
// kCalibEveryS CPU seconds of its timed phase, and the round's CPU seconds
// are scaled by (kCalibRefS over the units' mean CPU time) to the power
// kContentionExponent. On a shared host this cancels most of the drift in
// the host's own speed (other tenants contend for the core, its caches and
// memory), which moves raw timings by 25% and more from minute to minute.
//
// --trace 0 prints the end-to-end metrics (one round per input set at least).
// --trace 1 alternates an untraced and a traced round and prints the
//   per-layer metrics: counts from Cluster::Metrics() and the RPC
//   registries, self times from the span log, and the tracing overhead.
//   The traced round must reproduce the untraced round's virtual-time
//   results exactly.
//
// Human-readable lines first; the last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}. Exit code 1 when an output
// check failed, 2 on set-up failure, 3 when a per-layer counter is missing.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>

#include "bench.h"

namespace cfsbench {
namespace {

using namespace cfs;
using Clock = std::chrono::steady_clock;

constexpr SimDuration kQuiesce = 3 * kSec;        // background work settles before verify
constexpr SimDuration kPhaseLimit = 120 * kSec;  // a timed phase longer than this is stuck
constexpr SimDuration kLogSampleEvery = 250 * kMsec;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this thread has run (the driver is single-threaded).
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// About the CPU seconds one calibration unit takes on the reference machine
/// (4-vCPU x86-64 VM, gcc 12, Release); one reference second is the host
/// time that machine would have spent.
constexpr double kCalibRefS = 0.0007;
/// The simulator's CPU time grows faster than a unit's when other tenants
/// contend for the core, its caches and memory, as its working set is far
/// larger: across the rounds of one run, log run time rose 1.3-2.8 times as
/// fast as log unit time on meta_mix and file_lifecycle. Scaling by the units'
/// slowdown to this power cancels most of that drift.
constexpr double kContentionExponent = 1.5;
/// Timed-phase CPU seconds between two calibration units, so that the units
/// see the host as the simulation does.
constexpr double kCalibEveryS = 0.02;
/// Heap and table steps of one unit.
constexpr uint64_t kCalibSteps = 2000;
volatile uint64_t calib_sink = 0;

/// CPU seconds of one unit of a fixed loop shaped like the simulator's work:
/// a binary heap of timed events, random lookups, inserts and erases in a
/// hash table, and byte passes over a buffer. Its storage is static so that
/// it never calls the allocator: the heap state the simulator leaves behind
/// would otherwise move the unit's time (by 15% between a traced and an
/// untraced round) without any change in the host's speed.
double CalibrateUnit() {
  static std::array<std::pair<uint64_t, uint64_t>, 1024> heap;
  static std::array<uint64_t, 1 << 14> table;
  static std::array<uint8_t, 64 << 10> buf;
  const double t0 = CpuSeconds();
  uint64_t x = 88172645463325252ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  table.fill(0);
  size_t n = 0;
  uint64_t sink = 0;
  for (uint64_t i = 0; i < kCalibSteps; i++) {
    heap[n++] = {rnd() & 0xffffff, i};
    std::push_heap(heap.begin(), heap.begin() + n, std::greater<>());
    if (n > 500) {
      std::pop_heap(heap.begin(), heap.begin() + n, std::greater<>());
      sink += heap[--n].second;
    }
    uint64_t& slot = table[rnd() & (table.size() - 1)];
    if (slot == 0) slot = x | 1;
    else if (i & 1) slot = 0;
    else sink += slot;
  }
  uint32_t h = 0;
  for (int pass = 0; pass < 4; pass++) {
    for (size_t i = 0; i < buf.size(); i++) {
      buf[i] = static_cast<uint8_t>(buf[i] + i + h);
      h = (h >> 8) ^ (h * 31 + buf[i]);
    }
  }
  calib_sink = calib_sink + sink + h;
  return CpuSeconds() - t0;
}

/// The calibration units of one round.
struct Calibration {
  double cpu_s = 0;
  int units = 0;

  /// Runs n units; returns their CPU seconds.
  double Run(int n) {
    double t = 0;
    for (int i = 0; i < n; i++) t += CalibrateUnit();
    cpu_s += t;
    units += n;
    return t;
  }
  /// Reference seconds per CPU second of the round.
  double scale() const { return std::pow(kCalibRefS * units / cpu_s, kContentionExponent); }
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// q-quantile of sorted whole-microsecond samples, plus how many samples lie
/// beyond its rank. Each sample value v stands for the interval
/// [v - 0.5, v + 0.5), and the quantile is interpolated linearly inside the
/// interval that holds rank q*n, so ties on one value (common for a fixed
/// network/disk path) still resolve below one microsecond.
struct Pct {
  double value = 0;
  size_t beyond = 0;
};
Pct Quantile(const std::vector<SimDuration>& sorted, double q) {
  const size_t n = sorted.size();
  if (n == 0) return {};
  const double target = q * static_cast<double>(n);
  const size_t rank = std::max<size_t>(1, static_cast<size_t>(std::ceil(target)));
  const SimDuration v = sorted[rank - 1];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin();
  const double within = (target - static_cast<double>(lo)) / static_cast<double>(hi - lo);
  return {static_cast<double>(v) - 0.5 + within, n - rank};
}

struct Round {
  CallLog log;
  SimDuration vtime = 0;  // virtual length of the timed phase
  uint64_t events = 0;    // scheduler events in the timed phase
  double calib_s = 0;    // mean CPU seconds of the round's calibration units
  double cpu_run_s = 0;  // timed phase in raw CPU seconds
  // Phases in reference seconds (see kCalibRefS).
  double setup_s = 0, run_s = 0, verify_s = 0, teardown_s = 0;
  std::map<std::string, double> layer;  // per-layer values (trace mode only)
  std::map<std::string, LabelSelf> self_by_label;  // traced rounds only
  std::map<std::string, std::string> expected_zero;
};

struct Snapshot {
  obs::Registry reg;
  RpcTotals rpc;
};

/// Delta of a named Cluster::Metrics() counter over the timed phase.
double Delta(const Snapshot& a, const Snapshot& b, const std::string& name) {
  return static_cast<double>(CounterOrThrow(b.reg, name) - CounterOrThrow(a.reg, name));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddSpanLayers(const std::map<std::string, LabelSelf>& self, Round* r) {
  auto sum = [&self](auto pred) {
    double s = 0;
    for (const auto& [label, l] : self) {
      if (pred(label)) s += static_cast<double>(l.self_us);
    }
    return s;
  };
  auto is = [](const char* want) { return [want](const std::string& l) { return l == want; }; };
  auto starts = [](const char* p) {
    return [p](const std::string& l) { return l.rfind(p, 0) == 0; };
  };
  r->layer["client.window_self_vus"] = sum(is("client:window"));
  r->layer["rpc.leg_self_vus"] = sum(starts("rpc:"));
  r->layer["meta.handler_self_vus"] = sum(starts("handler:Meta"));
  r->layer["raft.propose_self_vus"] = sum(is("raft:propose"));
  r->layer["raft.batch_self_vus"] = sum(is("raft:batch"));
  r->layer["raft.apply_self_vus"] = sum(is("raft:apply"));
  r->layer["datanode.chain_hop_vus"] = sum(is("rpc:ChainAppend"));
  r->layer["disk.read_self_vus"] = sum(is("disk:read"));
  r->layer["disk.write_self_vus"] = sum(is("disk:write"));
}

Round RunRound(const std::string& name, uint64_t seed, bool traced, bool layers) {
  Round r;
  Calibration calib;
  calib.Run(2);
  double t0 = CpuSeconds();
  std::unique_ptr<Workload> w = MakeWorkload(name, seed, traced);
  w->Setup();
  harness::Cluster& c = w->cluster();
  sim::Scheduler& sched = c.sched();
  r.setup_s = CpuSeconds() - t0;
  r.expected_zero = w->ExpectedZeros();

  Snapshot before;
  if (layers) before = {c.Metrics(), SumRpc(*w)};
  const size_t first_span = c.tracer().num_spans();
  uint64_t log_peak = 0;
  double excluded_s = 0;  // sampling and calibration inside the timed phase

  Recorder rec(&sched, &r.log);
  int running = 0;
  const SimTime vstart = sched.Now();
  const uint64_t ev0 = sim::Scheduler::process_executed_events();
  SimTime next_sample = traced ? vstart : INT64_MAX;
  t0 = CpuSeconds();
  double next_unit = t0 + kCalibEveryS;
  w->Launch(&rec, &running);
  for (uint64_t executed = 1; running > 0; executed++) {
    if (!sched.RunOne()) break;
    if (executed % 256 == 0 && CpuSeconds() >= next_unit) {
      excluded_s += calib.Run(1);
      next_unit = CpuSeconds() + kCalibEveryS;
    }
    const SimTime now = sched.Now();
    if (now >= w->next_tick()) w->Tick();
    if (now >= next_sample) {
      // Host time of the sampling, like the calibration's, is kept out of run_s.
      const double s0 = CpuSeconds();
      log_peak = std::max(log_peak, RaftLogBytes(c));
      next_sample = now + kLogSampleEvery;
      excluded_s += CpuSeconds() - s0;
    }
    if (now - vstart > kPhaseLimit) break;
  }
  r.run_s = CpuSeconds() - t0 - excluded_s;
  r.events = sim::Scheduler::process_executed_events() - ev0;
  r.vtime = sched.Now() - vstart;
  if (running > 0) {
    r.log.Wrong("timed phase did not finish: " + std::to_string(running) + " processes stuck");
  }

  if (layers) {
    Snapshot after{c.Metrics(), SumRpc(*w)};
    const double calls = static_cast<double>(r.log.completed());
    const double proposals = Delta(before, after, "raft.gc.proposals");
    r.layer["sim.net_bytes_per_op"] = Ratio(Delta(before, after, "net.bytes_sent"), calls);
    r.layer["sim.disk_write_bytes_per_user_byte"] = Ratio(
        Delta(before, after, "disk.write_bytes"), static_cast<double>(r.log.user_bytes_written));
    const double hits = Delta(before, after, "client.cache_hits");
    r.layer["client.cache_hit_ratio"] =
        Ratio(hits, hits + Delta(before, after, "client.cache_misses"));
    r.layer["client.meta_rpcs_per_op"] = Ratio(Delta(before, after, "client.meta_rpcs"), calls);
    r.layer["client.window_stalls_per_write"] =
        Ratio(Delta(before, after, "client.window_stalls"), static_cast<double>(r.log.write_calls));
    const double retried = static_cast<double>(
        (after.rpc.not_leader - before.rpc.not_leader) + (after.rpc.timeout - before.rpc.timeout) +
        (after.rpc.retries - before.rpc.retries));
    r.layer["rpc.retry_ratio"] =
        Ratio(retried, static_cast<double>(after.rpc.legs - before.rpc.legs));
    r.layer["raft.proposals_per_batch"] = Ratio(proposals, Delta(before, after, "raft.gc.batches"));
    r.layer["raft.log_writes_per_proposal"] =
        Ratio(Delta(before, after, "raft.log.append_writes"), proposals);
    r.layer["obs.health_detect_vus"] = static_cast<double>(w->health_detect_us());
    if (traced) {
      r.self_by_label = SelfTimes(c.tracer().spans(), first_span);
      AddSpanLayers(r.self_by_label, &r);
      r.layer["raft.log_retained_mib"] = static_cast<double>(log_peak) / kMiB;
    }
  }

  t0 = CpuSeconds();
  sched.RunFor(kQuiesce);
  w->Verify(&r.log);
  InvariantReport inv = c.CheckInvariants();
  if (!inv.ok()) r.log.Wrong("Cluster::CheckInvariants after the timed phase:\n" + inv.ToString());
  r.verify_s = CpuSeconds() - t0;

  t0 = CpuSeconds();
  w.reset();
  r.teardown_s = CpuSeconds() - t0;

  calib.Run(2);
  r.calib_s = calib.cpu_s / calib.units;
  r.cpu_run_s = r.run_s;
  const double scale = calib.scale();
  for (double* phase : {&r.setup_s, &r.run_s, &r.verify_s, &r.teardown_s}) *phase *= scale;
  return r;
}

/// The pooled virtual-time results of the first `sets` rounds.
Round Pool(const std::vector<Round>& rounds, size_t sets) {
  Round p;
  for (size_t i = 0; i < std::min(sets, rounds.size()); i++) {
    const Round& r = rounds[i];
    p.log.read_us.insert(p.log.read_us.end(), r.log.read_us.begin(), r.log.read_us.end());
    p.log.write_us.insert(p.log.write_us.end(), r.log.write_us.begin(), r.log.write_us.end());
    p.log.attempted += r.log.attempted;
    p.log.failed += r.log.failed;
    for (const std::string& e : r.log.errors) {
      if (p.log.errors.size() < 20) p.log.errors.push_back(e);
    }
    p.vtime += r.vtime;
    p.events += r.events;
  }
  return p;
}

/// The virtual-time results of a round: identical for a fixed seed.
bool SameVirtual(const Round& a, const Round& b) {
  return a.log.read_us == b.log.read_us && a.log.write_us == b.log.write_us &&
         a.log.attempted == b.log.attempted && a.log.failed == b.log.failed &&
         a.vtime == b.vtime;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or zero reason, human-readable only
  bool in_json = true;
};

void PrintJson(bool correct, const Round& r, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.log.attempted),
              static_cast<unsigned long long>(r.log.failed));
  const char* sep = "";
  for (const Metric& m : ms) {
    if (!m.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.6f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

double MaxRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Virtual-time metrics of the pooled rounds plus host-time medians.
std::vector<Metric> EndToEnd(const Round& r, const std::vector<Round>& rounds,
                             std::vector<std::string>* wrong) {
  std::vector<SimDuration> rd = r.log.read_us, wr = r.log.write_us;
  std::sort(rd.begin(), rd.end());
  std::sort(wr.begin(), wr.end());
  auto n = [](size_t k) { return "n=" + std::to_string(k); };
  std::vector<Metric> out;
  const double calls = static_cast<double>(r.log.completed());
  out.push_back({"ops_per_vsec", Ratio(calls * kSec, static_cast<double>(r.vtime)), "1/s",
                 "calls=" + std::to_string(r.log.completed()) +
                     " vtime_us=" + std::to_string(r.vtime)});
  for (auto [cls, samples] : {std::pair<const char*, const std::vector<SimDuration>*>{"read", &rd},
                              {"write", &wr}}) {
    const Pct p50 = Quantile(*samples, 0.50), p99 = Quantile(*samples, 0.99);
    out.push_back({std::string(cls) + "_p50_vus", p50.value, "us", n(samples->size())});
    out.push_back({std::string(cls) + "_p99_vus", p99.value, "us",
                   n(samples->size()) + " beyond_p99=" + std::to_string(p99.beyond)});
    if (p99.beyond < 10) {
      wrong->push_back(std::string(cls) + "_p99_vus rests on " + std::to_string(p99.beyond) +
                       " samples beyond it (need >= 10)");
    }
  }
  // Zero on a healthy run, so it is no JSON metric: the JSON carries it as
  // "failed" over "attempted".
  out.push_back({"failed_op_frac",
                 Ratio(static_cast<double>(r.log.failed), static_cast<double>(r.log.attempted)),
                 "ratio",
                 "failed=" + std::to_string(r.log.failed) +
                     " attempted=" + std::to_string(r.log.attempted),
                 false});
  // Round 1 warms the process up (first-touch page faults, allocator growth)
  // and is left out of the host-time medians.
  std::vector<double> host_ops, setup;
  for (size_t i = 1; i < rounds.size(); i++) {
    host_ops.push_back(static_cast<double>(rounds[i].log.completed()) / rounds[i].run_s);
    setup.push_back(rounds[i].setup_s);
  }
  const std::string over =
      "median of rounds 2-" + std::to_string(rounds.size()) + ", in reference seconds";
  out.push_back({"host_ops_per_s", Median(host_ops), "1/s", over});
  out.push_back({"max_rss_mb", MaxRssMb(), "MB", "peak RSS of the untraced rounds"});
  out.push_back({"setup_s", Median(setup), "s", over});
  return out;
}

struct LayerSpec {
  const char* name;
  const char* unit;
};
// Order and units of the per-layer metrics (BENCHMARK.json "per_layer").
constexpr LayerSpec kLayers[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.net_bytes_per_op", "B"},
    {"sim.disk_write_bytes_per_user_byte", "ratio"},
    {"client.cache_hit_ratio", "ratio"},
    {"client.meta_rpcs_per_op", "1/op"},
    {"client.window_stalls_per_write", "1/op"},
    {"client.window_self_vus", "us"},
    {"rpc.retry_ratio", "ratio"},
    {"rpc.leg_self_vus", "us"},
    {"meta.handler_self_vus", "us"},
    {"raft.proposals_per_batch", "1/batch"},
    {"raft.log_writes_per_proposal", "1/proposal"},
    {"raft.propose_self_vus", "us"},
    {"raft.batch_self_vus", "us"},
    {"raft.apply_self_vus", "us"},
    {"raft.log_retained_mib", "MiB"},
    {"datanode.chain_hop_vus", "us"},
    {"disk.read_self_vus", "us"},
    {"disk.write_self_vus", "us"},
    {"obs.health_detect_vus", "us"},
    {"obs.trace_overhead_frac", "ratio"},
    {"harness.run_s", "s"},
    {"harness.verify_s", "s"},
    {"harness.teardown_s", "s"},
};

/// A zero-valued layer must come with a reason (the workload's own or a
/// structural one); any other zero fails the run.
std::vector<Metric> PerLayer(const std::vector<Round>& plain, const std::vector<Round>& traced,
                             std::vector<std::string>* wrong) {
  // Counts from the untraced round; span-derived values from the traced one.
  std::map<std::string, double> v = plain.front().layer;
  for (const auto& [k, x] : traced.front().layer) v.emplace(k, x);
  v["sim.events"] = static_cast<double>(plain.front().events);
  std::vector<double> ns_per_event, overhead, run, verify, teardown;
  for (size_t i = 0; i < plain.size(); i++) {
    ns_per_event.push_back(plain[i].run_s * 1e9 / static_cast<double>(plain[i].events));
    overhead.push_back(traced[i].run_s / plain[i].run_s - 1);
    run.push_back(plain[i].run_s);
    verify.push_back(plain[i].verify_s);
    teardown.push_back(plain[i].teardown_s);
  }
  v["sim.host_ns_per_event"] = Median(ns_per_event);
  v["obs.trace_overhead_frac"] = Median(overhead);
  v["harness.run_s"] = Median(run);
  v["harness.verify_s"] = Median(verify);
  v["harness.teardown_s"] = Median(teardown);

  // Zeros every workload may show, besides the workload's own.
  std::map<std::string, std::string> expected = plain.front().expected_zero;
  expected.emplace("rpc.retry_ratio", "no leg was retried, redirected or timed out");
  expected.emplace("raft.batch_self_vus",
                   "each raft:batch span is covered by its WAL disk:write child");
  expected.emplace("client.window_self_vus",
                   "in-flight rpc:WritePacket children cover every instant of each "
                   "client:window span");
  std::vector<Metric> out;
  for (const LayerSpec& s : kLayers) {
    auto it = v.find(s.name);
    if (it == v.end()) {
      throw std::runtime_error(std::string("per-layer metric '") + s.name + "' was not measured");
    }
    std::string note;
    if (it->second == 0) {
      auto why = expected.find(s.name);
      if (why != expected.end()) {
        note = "zero: " + why->second;
      } else {
        wrong->push_back(std::string("per-layer metric ") + s.name +
                         " is zero with no known reason");
      }
    }
    out.push_back({s.name, it->second, s.unit, note});
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  if (argc % 2 == 0) argc = 0;  // a flag without its value: print usage
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(val);
    else if (flag == "--trace") trace = std::atoi(val);
    else {
      std::fprintf(stderr, "cfsbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  const bool known = std::find(names.begin(), names.end(), workload) != names.end();
  if (!known || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "usage: cfsbench --workload <");
    for (const std::string& n : names) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, " > --seed N --seconds S --trace <0|1>\n");
    return 2;
  }

  std::printf("cfsbench workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::vector<std::string> wrong;
  std::vector<Round> plain, traced;
  const auto start = Clock::now();
  // Round i uses input seed seed * sets + i % sets.
  const size_t sets = MakeWorkload(workload, seed, false)->input_sets();
  const size_t min_rounds = trace ? 1 : sets;
  while (plain.size() < min_rounds || Since(start) < seconds) {
    const size_t i = plain.size();
    const uint64_t round_seed = seed * sets + i % sets;
    plain.push_back(RunRound(workload, round_seed, false, trace == 1));
    if (i >= sets && !SameVirtual(plain[i - sets], plain.back())) {
      wrong.push_back("round " + std::to_string(i + 1) + " did not reproduce round " +
                      std::to_string(i + 1 - sets) + "'s virtual-time results");
    }
    if (trace) {
      traced.push_back(RunRound(workload, round_seed, true, true));
      if (!SameVirtual(plain.back(), traced.back())) {
        wrong.push_back("the traced round's virtual-time results differ from the untraced round's");
      }
    }
  }

  const Round pooled = Pool(plain, sets);
  for (const std::string& e : pooled.log.errors) std::printf("failed call: %s\n", e.c_str());
  for (const std::vector<Round>* rounds : {&plain, &traced}) {
    for (const Round& r : *rounds) {
      for (const std::string& e : r.log.wrong) {
        if (std::find(wrong.begin(), wrong.end(), e) == wrong.end()) wrong.push_back(e);
      }
    }
  }
  std::printf("rounds=%zu%s pooled: calls=%llu failed=%llu events=%llu vtime_us=%lld\n",
              plain.size(), trace ? " (+traced)" : "",
              static_cast<unsigned long long>(pooled.log.attempted),
              static_cast<unsigned long long>(pooled.log.failed),
              static_cast<unsigned long long>(pooled.events), static_cast<long long>(pooled.vtime));

  for (size_t i = 0; i < plain.size(); i++) {
    const Round& x = plain[i];
    std::printf(
        "round %zu: setup_s=%.4f run_s=%.4f verify_s=%.4f teardown_s=%.4f (cpu run_s=%.4f "
        "calib_us=%.1f)\n",
        i + 1, x.setup_s, x.run_s, x.verify_s, x.teardown_s, x.cpu_run_s, x.calib_s * 1e6);
  }
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = EndToEnd(pooled, plain, &wrong);
    std::printf("end-to-end:\n");
  } else {
    metrics = PerLayer(plain, traced, &wrong);
    std::printf("per-layer:\n");
  }
  PrintMetrics(metrics);
  if (trace == 1) {
    std::printf("span self time by label (traced round, timed phase):\n");
    for (const auto& [label, l] : traced.front().self_by_label) {
      std::printf("  %-36s spans=%-9llu self_us=%llu\n", label.c_str(),
                  static_cast<unsigned long long>(l.spans),
                  static_cast<unsigned long long>(l.self_us));
    }
  }
  for (const std::string& e : wrong) std::printf("WRONG: %s\n", e.c_str());
  const bool correct = wrong.empty();
  PrintJson(correct, pooled, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cfsbench

int main(int argc, char** argv) {
  try {
    return cfsbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cfsbench: %s\n", e.what());
    return 3;
  }
}
