// Shared setup for the reproduction benches: builds a paper-shaped CFS
// cluster (10 machines, meta+data colocated, 3 masters) and a Ceph cluster
// (10 machines, 1 MDS + 16 OSDs each) on separate simulations, and wires
// mdtest/fio process vectors.
//
// Scale substitutions vs the paper testbed are documented in DESIGN.md:
// extent stores run in accounting mode, file sizes and item counts are
// scaled down (IOPS is rate-based; shapes are preserved), and each bench
// prints the simulated-time IOPS for CFS and Ceph side by side.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/workloads.h"
#include "obs/analysis.h"

namespace cfs::bench {

struct CfsBench {
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<client::Client*> clients;
  std::vector<std::unique_ptr<CfsMetaOps>> meta_adapters;
  std::vector<std::unique_ptr<CfsDataOps>> data_adapters;

  sim::Scheduler& sched() { return cluster->sched(); }
};

inline CfsBench MakeCfsBench(int num_clients, uint64_t seed = 1,
                             uint32_t meta_partitions = 30, uint32_t data_partitions = 40,
                             uint64_t nic_mib = 0,
                             std::optional<client::ClientOptions> client_opts = std::nullopt,
                             bool trace = false, int num_nodes = 10) {
  CfsBench b;
  harness::ClusterOptions opts;
  opts.num_nodes = num_nodes;  // paper testbed default: 10 machines
  opts.seed = seed;
  opts.track_contents = false;
  opts.trace = trace;  // span tracing never perturbs the schedule (obs/trace.h)
  if (client_opts) opts.client = *client_opts;
  opts.host.disk.capacity_bytes = 960ull * kGiB;
  // Data-path benches scale the wire rate up so the storage stack (not the
  // NIC) is the binding resource, matching the regime the paper's absolute
  // random-IO numbers imply (see EXPERIMENTS.md).
  if (nic_mib) opts.network.bandwidth_mib = nic_mib;
  // Bound append batches so a single follower round never serializes
  // hundreds of KB of log payload (keeps overwrite latency flat under load).
  opts.raft.max_batch_entries = 16;
  b.cluster = std::make_unique<harness::Cluster>(opts);
  auto st = harness::RunTask(b.cluster->sched(), b.cluster->Start());
  if (!st || !st->ok()) {
    std::fprintf(stderr, "CFS cluster start failed\n");
    std::abort();
  }
  st = harness::RunTask(b.cluster->sched(),
                        b.cluster->CreateVolume("bench", meta_partitions, data_partitions));
  if (!st || !st->ok()) {
    std::fprintf(stderr, "CFS volume create failed: %s\n", st ? st->ToString().c_str() : "hang");
    std::abort();
  }
  for (int i = 0; i < num_clients; i++) {
    auto c = harness::RunTask(b.cluster->sched(), b.cluster->MountClient("bench"));
    if (!c || !c->ok()) {
      std::fprintf(stderr, "CFS mount failed\n");
      std::abort();
    }
    b.clients.push_back(**c);
    b.meta_adapters.push_back(std::make_unique<CfsMetaOps>(**c));
    b.data_adapters.push_back(std::make_unique<CfsDataOps>(
        b.cluster.get(), **c, 128 * kKiB));
  }
  return b;
}

struct CephBench {
  std::unique_ptr<sim::Scheduler> sched_holder;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<ceph::CephCluster> cluster;
  std::vector<std::unique_ptr<ceph::CephClient>> clients;
  std::vector<std::unique_ptr<CephMetaOps>> meta_adapters;
  std::vector<std::unique_ptr<CephDataOps>> data_adapters;

  sim::Scheduler& sched() { return *sched_holder; }
};

inline CephBench MakeCephBench(int num_clients, uint64_t seed = 1,
                               ceph::CephOptions opts = {}, uint64_t nic_mib = 0) {
  CephBench b;
  b.sched_holder = std::make_unique<sim::Scheduler>(seed);
  sim::NetworkOptions nopts;
  if (nic_mib) nopts.bandwidth_mib = nic_mib;
  b.net = std::make_unique<sim::Network>(b.sched_holder.get(), nopts);
  b.cluster = std::make_unique<ceph::CephCluster>(b.sched_holder.get(), b.net.get(), opts);
  for (int i = 0; i < num_clients; i++) {
    sim::HostOptions ho;
    ho.num_disks = 1;
    sim::Host* h = b.net->AddHost(ho);
    b.clients.push_back(std::make_unique<ceph::CephClient>(b.cluster.get(), h));
    b.meta_adapters.push_back(std::make_unique<CephMetaOps>(b.clients.back().get()));
    b.data_adapters.push_back(std::make_unique<CephDataOps>(b.clients.back().get()));
  }
  return b;
}

/// Per-RPC metric accumulation across bench cells. Every cell constructs a
/// fresh cluster, so its registries die with the cell: fold them into a
/// main()-scoped registry before teardown, then dump once at the end.
inline void AccumulateRpcMetrics(const CfsBench& b, rpc::MetricRegistry* into) {
  into->MergeFrom(b.cluster->rpc_metrics());
  for (client::Client* c : b.clients) into->MergeFrom(c->rpc_metrics());
}

inline void AccumulateRpcMetrics(const CephBench& b, rpc::MetricRegistry* into) {
  into->MergeFrom(b.cluster->rpc_metrics());
}

/// One machine-readable line per system: `rpc_metrics <label> {json}`.
inline void PrintRpcMetrics(const char* label, const rpc::MetricRegistry& reg) {
  std::printf("rpc_metrics %s %s\n", label, reg.DumpJson().c_str());
}

/// Cluster-wide counters/gauges filtered to the "net." and "qos."
/// namespaces, folded across bench cells (each cell tears down its own
/// cluster, so fold before teardown). Surfaces the rpc-timeout watchdog
/// accounting (net.rpc_timeout.{cancelled,fired}) and the per-tenant
/// admission-queue counters/depths next to the latency_quantiles lines.
inline void AccumulateClusterMetrics(CfsBench& b, obs::Registry* into) {
  obs::Registry reg = b.cluster->Metrics();
  for (const auto& [k, v] : reg.counters()) {
    if (k.rfind("net.", 0) == 0 || k.rfind("qos.", 0) == 0) into->Add(k, v);
  }
  for (const auto& [k, v] : reg.gauges()) {
    if (k.rfind("net.", 0) == 0 || k.rfind("qos.", 0) == 0) into->SetMax(k, v);
  }
}

/// One machine-readable line per bench: `cluster_metrics <label> {json}`.
inline void PrintClusterMetrics(const char* label, const obs::Registry& reg) {
  std::printf("cluster_metrics %s %s\n", label, reg.DumpJson().c_str());
}

/// One machine-readable line with the cluster-wide group-commit counters
/// (raft proposal batching) and leader log-write accounting: how many
/// proposals shared each log flush, and what that did to WAL write counts.
inline void PrintGroupCommitStats(const char* label, const harness::Cluster& cluster) {
  raft::GroupCommitStats gc = cluster.group_commit_stats();
  raft::RaftHost::LogWriteStats lw = cluster.log_write_stats();
  double avg_batch = gc.batches ? static_cast<double>(gc.proposals) / gc.batches : 0.0;
  std::printf(
      "group_commit %s {\"batches\":%llu,\"proposals\":%llu,\"avg_batch\":%.2f,"
      "\"max_batch\":%llu,\"queue_high_watermark\":%llu,\"batched_bytes\":%llu,"
      "\"log_append_writes\":%llu,\"log_appended_entries\":%llu,"
      "\"log_persisted_bytes\":%llu}\n",
      label, static_cast<unsigned long long>(gc.batches),
      static_cast<unsigned long long>(gc.proposals), avg_batch,
      static_cast<unsigned long long>(gc.max_batch),
      static_cast<unsigned long long>(gc.queue_high_watermark),
      static_cast<unsigned long long>(gc.batched_bytes),
      static_cast<unsigned long long>(lw.append_writes),
      static_cast<unsigned long long>(lw.appended_entries),
      static_cast<unsigned long long>(lw.persisted_bytes));
}

/// Simulator-throughput reporter: constructed at the top of a bench main, it
/// snapshots wall-clock time and the process-wide executed-event counter
/// (sim::Scheduler::process_executed_events), and Print() emits one machine
/// line `bench_wallclock <bench> {json}` with wall seconds, events retired,
/// events/sec and the process's peak RSS. tools/collect_bench.py folds these
/// into BENCH_wallclock.json (schema in EXPERIMENTS.md) so simulator-throughput
/// regressions are caught like any other perf bug. Wall-clock use is fine
/// here: bench/ is outside the determinism lint's src/ scope and the value
/// never feeds the schedule.
class WallclockReporter {
 public:
  explicit WallclockReporter(const char* bench)
      : bench_(bench),
        start_(std::chrono::steady_clock::now()),
        events0_(sim::Scheduler::process_executed_events()) {}

  void Print() const {
    std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start_;
    uint64_t events = sim::Scheduler::process_executed_events() - events0_;
    double sec = wall.count();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);  // ru_maxrss is in KiB on Linux
    std::printf(
        "bench_wallclock %s {\"wall_sec\":%.3f,\"events\":%llu,\"events_per_sec\":%.0f,"
        "\"max_rss_mb\":%.1f}\n",
        bench_, sec, static_cast<unsigned long long>(events),
        sec > 0 ? static_cast<double>(events) / sec : 0.0,
        static_cast<double>(ru.ru_maxrss) / 1024.0);
  }

 private:
  const char* bench_;
  std::chrono::steady_clock::time_point start_;
  uint64_t events0_;
};

/// Shared tiny-parameter switch for the ablation benches: `--smoke` shrinks
/// every sweep so CI can execute each binary end to end in seconds.
inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == name) return true;
  }
  return false;
}

inline bool SmokeMode(int argc, char** argv) { return HasFlag(argc, argv, "--smoke"); }

/// Value of `--name <value>` (or nullptr if absent). Used by bench_fig8 for
/// `--trace-out <path>`.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::string(argv[i]) == name) return argv[i + 1];
  }
  return nullptr;
}

// --- Table printing ---------------------------------------------------------

inline void PrintHeader(const std::string& title, const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-24s", "");
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
}

inline void PrintRow(const std::string& label, const std::vector<double>& values) {
  std::printf("%-24s", label.c_str());
  for (double v : values) {
    if (v >= 1000) {
      std::printf("%14.0f", v);
    } else {
      std::printf("%14.1f", v);
    }
  }
  std::printf("\n");
}

/// One machine-readable quantile line per (system, test) pair:
/// `latency_quantiles <label> {json}`. Quantiles are interpolated from the
/// fixed-bucket obs::Histogram (see DESIGN.md "Observability"), so treat
/// them as bucket-resolution estimates, not exact order statistics.
inline void PrintLatencyQuantiles(const std::string& label, const obs::Histogram& h) {
  std::printf(
      "latency_quantiles %s {\"count\":%llu,\"p50_usec\":%.1f,\"p95_usec\":%.1f,"
      "\"p99_usec\":%.1f,\"max_usec\":%llu,\"mean_usec\":%.1f}\n",
      label.c_str(), static_cast<unsigned long long>(h.count), h.P50(), h.P95(), h.P99(),
      static_cast<unsigned long long>(h.max_usec),
      h.count ? static_cast<double>(h.sum_usec) / static_cast<double>(h.count) : 0.0);
}

/// Per-stage breakdown of the most recent trace whose root matches
/// `root_prefix` (e.g. "op:write"): `stage_breakdown <label> {json}`.
/// Requires the bench cell to have been built with trace=true.
inline void PrintStageBreakdown(const std::string& label, harness::Cluster& cluster,
                                std::string_view root_prefix) {
  uint64_t id = obs::FindLastTrace(cluster.tracer(), root_prefix);
  obs::TraceBreakdown bd = obs::StageBreakdown(cluster.tracer(), id);
  std::printf("stage_breakdown %s %s\n", label.c_str(), bd.DumpJson().c_str());
}

/// procs_per_client copies of each client's adapter (mdtest processes on one
/// client share the mount and its caches, §4.1).
template <typename T>
std::vector<T*> FanOut(const std::vector<std::unique_ptr<T>>& adapters, int procs_per_client) {
  std::vector<T*> out;
  for (const auto& a : adapters) {
    for (int p = 0; p < procs_per_client; p++) out.push_back(a.get());
  }
  return out;
}

template <typename Base, typename T>
std::vector<Base*> FanOutAs(const std::vector<std::unique_ptr<T>>& adapters,
                            int procs_per_client) {
  std::vector<Base*> out;
  for (const auto& a : adapters) {
    for (int p = 0; p < procs_per_client; p++) out.push_back(a.get());
  }
  return out;
}

}  // namespace cfs::bench
