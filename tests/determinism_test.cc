// Determinism-auditor contract tests: the DES promises bit-identical replay
// from a seed, and the scheduler/network fold every executed event and every
// message into an FNV-1a trace hash (sim/scheduler.h). These tests run full
// cluster scenarios TWICE through harness::AuditDeterminism and fail on any
// hash divergence — the dynamic net that catches iteration-order and
// wall-clock bugs (e.g. unordered-container iteration feeding message order)
// the moment a change introduces one.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace cfs::harness {
namespace {

using client::MountContext;
using meta::FileType;
using meta::kRootInode;
using sim::Task;

ClusterOptions SmallCluster(uint64_t seed) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.seed = seed;
  opts.client.rpc_timeout = 300 * kMsec;
  return opts;
}

/// Boot + mount, returning the client's mount (nullptr on failure, which the
/// scenario surfaces as a hash of the failed run — still deterministic).
MountContext* BootAndMount(Cluster& cluster) {
  auto st = RunTask(cluster.sched(), cluster.Start());
  if (!st || !st->ok()) return nullptr;
  st = RunTask(cluster.sched(), cluster.CreateVolume("v", 3, 8));
  if (!st || !st->ok()) return nullptr;
  auto c = RunTask(cluster.sched(), cluster.MountClient("v"));
  if (!c || !c->ok()) return nullptr;
  return (**c)->default_mount();
}

TEST(Determinism, MetadataAndDataWorkloadReplaysIdentically) {
  auto scenario = [](Cluster& cluster) {
    MountContext* m = BootAndMount(cluster);
    ASSERT_NE(m, nullptr);
    for (int i = 0; i < 8; i++) {
      auto f = RunTask(cluster.sched(),
                       m->Create(kRootInode, "f" + std::to_string(i),
                                 FileType::kFile));
      ASSERT_TRUE(f && f->ok());
      ASSERT_TRUE(RunTask(cluster.sched(), m->Open((*f)->id))->ok());
      ASSERT_TRUE(RunTask(cluster.sched(),
                          m->Write((*f)->id, 0, std::string(64 * kKiB, 'd')))
                      ->ok());
      ASSERT_TRUE(RunTask(cluster.sched(), m->Close((*f)->id))->ok());
    }
    (void)RunTask(cluster.sched(), m->ReadDir(kRootInode));
    cluster.sched().RunFor(2 * kSec);
  };
  auto [first, second] = AuditDeterminism(SmallCluster(11), scenario);
  EXPECT_EQ(first, second);
}

TEST(Determinism, CrashAndRestartReplaysIdentically) {
  auto scenario = [](Cluster& cluster) {
    MountContext* m = BootAndMount(cluster);
    ASSERT_NE(m, nullptr);
    auto f = RunTask(cluster.sched(),
                     m->Create(kRootInode, "crashy.bin", FileType::kFile));
    ASSERT_TRUE(f && f->ok());
    ASSERT_TRUE(RunTask(cluster.sched(), m->Open((*f)->id))->ok());
    ASSERT_TRUE(RunTask(cluster.sched(),
                        m->Write((*f)->id, 0, std::string(128 * kKiB, 'a')))
                    ->ok());
    cluster.CrashNode(2);
    cluster.sched().RunFor(2 * kSec);
    (void)RunTask(cluster.sched(),
                  m->Write((*f)->id, 128 * kKiB, std::string(64 * kKiB, 'b')));
    ASSERT_TRUE(RunTaskVoid(cluster.sched(), cluster.RestartNode(2)));
    cluster.sched().RunFor(3 * kSec);
    (void)RunTask(cluster.sched(), m->Read((*f)->id, 0, 192 * kKiB));
  };
  auto [first, second] = AuditDeterminism(SmallCluster(23), scenario);
  EXPECT_EQ(first, second);
}

TEST(Determinism, MessageLossReplaysIdentically) {
  // Drops draw from the seeded RNG, so even lossy runs must replay exactly.
  auto scenario = [](Cluster& cluster) {
    MountContext* m = BootAndMount(cluster);
    ASSERT_NE(m, nullptr);
    cluster.net().SetDropProbability(0.05);
    for (int i = 0; i < 10; i++) {
      (void)RunTask(cluster.sched(),
                    m->Create(kRootInode, "lossy" + std::to_string(i),
                              FileType::kFile));
    }
    cluster.net().SetDropProbability(0);
    cluster.sched().RunFor(2 * kSec);
  };
  auto [first, second] = AuditDeterminism(SmallCluster(37), scenario);
  EXPECT_EQ(first, second);
}

/// A mixed metadata + data workload used by the tracing audits below.
void TracedScenario(Cluster& cluster) {
  MountContext* m = BootAndMount(cluster);
  ASSERT_NE(m, nullptr);
  for (int i = 0; i < 4; i++) {
    auto f = RunTask(cluster.sched(),
                     m->Create(kRootInode, "t" + std::to_string(i), FileType::kFile));
    ASSERT_TRUE(f && f->ok());
    ASSERT_TRUE(RunTask(cluster.sched(),
                        m->Write((*f)->id, 0, std::string(192 * kKiB, 'x')))
                    ->ok());
    (void)RunTask(cluster.sched(), m->Read((*f)->id, 0, 64 * kKiB));
  }
  (void)RunTask(cluster.sched(), m->ReadDirPlus(kRootInode));
  cluster.sched().RunFor(1 * kSec);
}

TEST(Determinism, TracingIsScheduleNeutral) {
  // The zero-schedule-cost invariant (obs/trace.h): enabling the span
  // tracer must not perturb a single event or message — a traced and an
  // untraced run of the same seed produce identical MixTrace hashes.
  auto run = [](bool trace) {
    ClusterOptions opts = SmallCluster(41);
    opts.trace = trace;
    Cluster cluster(opts);
    TracedScenario(cluster);
    return cluster.sched().trace_hash();
  };
  uint64_t untraced = run(false);
  uint64_t traced = run(true);
  EXPECT_EQ(untraced, traced);
}

TEST(Determinism, TracedRunsProduceByteIdenticalObservability) {
  // Same-seed traced runs must agree byte for byte on every observability
  // artifact: the span log (ids come from the tracer's private seeded Rng)
  // and the unified metric registry dump (ordered maps only).
  auto run = [](std::string* span_log, std::string* metrics_json) {
    ClusterOptions opts = SmallCluster(43);
    opts.trace = true;
    Cluster cluster(opts);
    TracedScenario(cluster);
    *span_log = cluster.tracer().DumpLog();
    *metrics_json = cluster.MetricsJson();
    return cluster.tracer().num_spans();
  };
  std::string log1, log2, metrics1, metrics2;
  size_t spans1 = run(&log1, &metrics1);
  size_t spans2 = run(&log2, &metrics2);
  EXPECT_GT(spans1, 0u) << "traced workload recorded no spans";
  EXPECT_EQ(spans1, spans2);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(metrics1, metrics2);
  // The registry absorbed the span count and at least one rpc metric.
  EXPECT_NE(metrics1.find("\"obs.spans\""), std::string::npos);
  EXPECT_NE(metrics1.find("\"rpc."), std::string::npos);
}

TEST(Determinism, HealthTelemetryIsScheduleNeutral) {
  // Health telemetry's zero-schedule-cost invariant (harness/cluster.h):
  // observers are synchronous, sampling rides the heartbeat wakeups that
  // exist anyway, and the heartbeat's wire size is frozen — so a run with
  // health scoring on is event-for-event identical to one with it off.
  auto run = [](bool health) {
    ClusterOptions opts = SmallCluster(47);
    opts.health = health;
    Cluster cluster(opts);
    TracedScenario(cluster);
    return cluster.sched().trace_hash();
  };
  uint64_t off = run(false);
  uint64_t on = run(true);
  EXPECT_EQ(off, on);
}

TEST(Determinism, HealthRunsProduceByteIdenticalDumps) {
  // Same-seed health-enabled runs must agree byte for byte on the full
  // health dump and the event log (integer arithmetic + ordered containers
  // only — no floats, no unordered iteration, no wall clock).
  auto run = [](std::string* health_json, std::string* events) {
    ClusterOptions opts = SmallCluster(53);
    opts.health = true;
    Cluster cluster(opts);
    TracedScenario(cluster);
    cluster.CollectAllNow();
    *health_json = cluster.HealthJson();
    *events = cluster.HealthEventsJsonl();
  };
  std::string json1, json2, events1, events2;
  run(&json1, &events1);
  run(&json2, &events2);
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(events1, events2);
  // The dump carries real telemetry: per-node series and the scorer section.
  EXPECT_NE(json1.find("\"scorer\""), std::string::npos);
  EXPECT_NE(json1.find("disk.write_usec"), std::string::npos);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check on the auditor's sensitivity: the same scenario under a
  // different seed takes a different event path (timers, jitter, drops).
  auto scenario = [](Cluster& cluster) {
    MountContext* m = BootAndMount(cluster);
    ASSERT_NE(m, nullptr);
    (void)RunTask(cluster.sched(),
                  m->Create(kRootInode, "seeded", FileType::kFile));
    cluster.sched().RunFor(1 * kSec);
  };
  auto [a, a2] = AuditDeterminism(SmallCluster(5), scenario);
  auto [b, b2] = AuditDeterminism(SmallCluster(6), scenario);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace cfs::harness
