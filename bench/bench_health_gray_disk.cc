// Gray-failure detection bench: inject a slow (not dead) disk mid-run and
// measure how long the windowed health telemetry takes to flag it.
//
// The scenario: a CFS cluster with health telemetry enabled runs a steady
// overwrite workload; after a warmup we pick the busiest disk on node 0 and
// multiply its service time by --slow-factor (default 8). The disk keeps
// succeeding — binary liveness (heartbeats, timeouts) never notices — but
// its windowed p99 detaches from the cohort median of the equivalently
// loaded disks on the other nodes and the scorer walks it healthy ->
// suspect. The bench reports the detection latency in microseconds and in
// scorer windows.
//
// The whole scenario runs TWICE with the same seed and asserts the two
// health-event logs are byte-identical (the telemetry pipeline is as
// deterministic as the simulation it observes).
//
// Machine lines (parsed by tools/collect_bench.py):
//   health_detection gray_disk {json}   schema in EXPERIMENTS.md
//   bench_wallclock ...
//
// Flags:
//   --smoke            5 nodes, shorter phases (CI).
//   --slow-factor N    service-time multiplier for the gray disk (default 8).
//   --events-out PATH  write the first run's health-event log (JSONL) to
//                      PATH (CI validates it with tools/health_report.py).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_common.h"

using namespace cfs;
using namespace cfs::bench;

namespace {

// Steady stride-overwrite load: deterministic offsets, no RNG, runs until
// *stop. One counted op per completed write.
sim::Task<void> WriterLoop(CfsDataOps* ops, uint64_t file, uint64_t file_bytes,
                           uint64_t block, const bool* stop, uint64_t* done) {
  uint64_t i = 0;
  while (!*stop) {
    const uint64_t off = (i++ * block) % file_bytes;
    (void)co_await ops->Write(file, off, block, /*overwrite=*/true);
    (*done)++;
  }
}

struct GrayRunResult {
  std::string events;       // byte-stable health-event log (JSONL)
  std::string health;       // full HealthJson dump
  std::string target;       // the injected disk's scorer target
  SimTime injected_at = 0;  // virtual time of the slow_factor flip
  SimTime suspect_at = 0;   // virtual time of the healthy->suspect event
  bool detected = false;
  uint64_t ops = 0;
};

GrayRunResult RunOnce(bool smoke, uint32_t slow_factor, uint64_t seed) {
  GrayRunResult out;
  harness::ClusterOptions opts;
  opts.num_nodes = smoke ? 5 : 10;
  opts.seed = seed;
  opts.track_contents = false;
  opts.health = true;
  opts.network.bandwidth_mib = 1170;
  opts.raft.max_batch_entries = 16;
  harness::Cluster cluster(opts);
  auto st = harness::RunTask(cluster.sched(), cluster.Start());
  if (!st || !st->ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::abort();
  }
  const uint32_t data_parts = smoke ? 20 : 40;
  st = harness::RunTask(cluster.sched(), cluster.CreateVolume("gray", 10, data_parts));
  if (!st || !st->ok()) {
    std::fprintf(stderr, "volume create failed\n");
    std::abort();
  }

  const int kClients = 2;
  const int kProcs = smoke ? 4 : 8;
  std::vector<std::unique_ptr<CfsDataOps>> adapters;
  std::vector<uint64_t> files;
  for (int c = 0; c < kClients; c++) {
    auto mounted = harness::RunTask(cluster.sched(), cluster.MountClient("gray"));
    if (!mounted || !mounted->ok()) {
      std::fprintf(stderr, "mount failed\n");
      std::abort();
    }
    for (int p = 0; p < kProcs; p++) {
      adapters.push_back(std::make_unique<CfsDataOps>(&cluster, (**mounted)->default_mount(), 128 * kKiB));
      auto file = harness::RunTask(cluster.sched(), adapters.back()->PrepareFile(64 * kMiB));
      if (!file || !file->ok()) {
        std::fprintf(stderr, "prepare failed\n");
        std::abort();
      }
      files.push_back(**file);
    }
  }

  bool stop = false;
  uint64_t done = 0;
  for (size_t i = 0; i < adapters.size(); i++) {
    sim::Spawn(WriterLoop(adapters[i].get(), files[i], 64 * kMiB, 128 * kKiB, &stop, &done));
  }

  // Phase A: warm-up under nominal hardware, long enough for several scored
  // windows of traffic everywhere.
  cluster.sched().RunFor((smoke ? 8 : 12) * kSec);

  // Pick the busiest disk on node 0 (deterministic: counters, lowest index
  // wins ties) so the injected device is guaranteed to be serving traffic.
  sim::Host* h = cluster.node_host(0);
  int gray = 0;
  uint64_t best = 0;
  for (int d = 0; d < h->num_disks(); d++) {
    const uint64_t ops = h->disk(d)->reads() + h->disk(d)->writes();
    if (ops > best) {
      best = ops;
      gray = d;
    }
  }
  out.target = "n0.disk" + std::to_string(gray);
  out.injected_at = cluster.sched().Now();
  h->disk(gray)->set_slow_factor(slow_factor);

  // Phase B: run until the scorer flags the disk (or give up). Scoring rides
  // the 1 s heartbeat cadence, so poll once per virtual second.
  const int max_seconds = smoke ? 20 : 30;
  for (int s = 0; s < max_seconds && !out.detected; s++) {
    cluster.sched().RunFor(1 * kSec);
    const obs::HealthEvent* ev =
        cluster.health_scorer()->FirstSuspectEvent(out.target, out.injected_at);
    if (ev) {
      out.suspect_at = ev->time;
      out.detected = true;
    }
  }

  // Drain the writers, flush pending windows, dump.
  stop = true;
  cluster.sched().RunFor(2 * kSec);
  cluster.CollectAllNow();
  out.events = cluster.HealthEventsJsonl();
  out.health = cluster.HealthJson();
  out.ops = done;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  WallclockReporter wallclock("bench_health_gray_disk");
  const bool smoke = SmokeMode(argc, argv);
  const char* sf = FlagValue(argc, argv, "--slow-factor");
  const uint32_t slow_factor = sf ? static_cast<uint32_t>(std::atoi(sf)) : 8;
  const char* events_out = FlagValue(argc, argv, "--events-out");

  std::printf("Gray-failure detection: slow disk x%u injected mid-run (%s)\n", slow_factor,
              smoke ? "smoke" : "full");

  GrayRunResult r1 = RunOnce(smoke, slow_factor, /*seed=*/1);
  GrayRunResult r2 = RunOnce(smoke, slow_factor, /*seed=*/1);
  const bool identical = r1.events == r2.events;

  const SimDuration window = obs::HealthOptions{}.window_usec;
  const SimDuration detect = r1.detected ? r1.suspect_at - r1.injected_at : -1;
  const int64_t detect_windows =
      r1.detected ? static_cast<int64_t>((detect + window - 1) / window) : -1;

  std::printf("target %s: injected at %llu, %s\n", r1.target.c_str(),
              static_cast<unsigned long long>(r1.injected_at),
              r1.detected ? "detected" : "NOT detected");
  if (r1.detected) {
    std::printf("  suspect at %llu (+%lld usec, %lld windows)\n",
                static_cast<unsigned long long>(r1.suspect_at),
                static_cast<long long>(detect), static_cast<long long>(detect_windows));
  }
  std::printf("  same-seed event logs byte-identical: %s\n", identical ? "yes" : "NO");

  std::printf(
      "health_detection gray_disk {\"slow_factor\":%u,\"target\":\"%s\","
      "\"injected_usec\":%llu,\"suspect_usec\":%lld,\"detect_usec\":%lld,"
      "\"detect_windows\":%lld,\"events\":%llu,\"ops\":%llu,\"runs_identical\":%s}\n",
      slow_factor, r1.target.c_str(), static_cast<unsigned long long>(r1.injected_at),
      r1.detected ? static_cast<long long>(r1.suspect_at) : -1,
      static_cast<long long>(detect), static_cast<long long>(detect_windows),
      static_cast<unsigned long long>(
          static_cast<uint64_t>(std::count(r1.events.begin(), r1.events.end(), '\n'))),
      static_cast<unsigned long long>(r1.ops), identical ? "true" : "false");

  if (events_out) {
    std::ofstream f(events_out);
    f << r1.events;
  }
  if (const char* health_out = FlagValue(argc, argv, "--health-out")) {
    std::ofstream f(health_out);
    f << r1.health << "\n";
  }

  wallclock.Print();
  // CI gates on these: the injected gray disk must be detected, and the
  // telemetry must be deterministic.
  return (r1.detected && identical) ? 0 : 1;
}
