// Shared types of the CFS benchmark driver: the per-call log of a timed
// phase, the recorder that times each public client call in virtual time,
// the workload interface, and the per-layer readers (layers.cc).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "obs/metrics.h"

namespace cfsbench {

using cfs::SimDuration;
using cfs::SimTime;

/// Call classes: reads do not mutate (Lookup, GetInode, ReadDirPlus, Read),
/// writes do (Create, Unlink, Write, Close, Truncate).
enum class Kind { kRead, kWrite };

/// Everything one timed phase produced from the user's side. Failed calls
/// are counted, never sampled.
struct CallLog {
  std::vector<SimDuration> read_us;   // virtual latency of each succeeded read call
  std::vector<SimDuration> write_us;  // ... and of each succeeded write call
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t write_calls = 0;         // Write() calls attempted
  uint64_t user_bytes_written = 0;  // payload of acknowledged Write() calls
  std::vector<std::string> errors;  // first failed calls, for the report
  std::vector<std::string> wrong;   // output mismatches: any entry fails the run

  uint64_t completed() const { return attempted - failed; }
  void Wrong(std::string what) {
    if (wrong.size() < 20) wrong.push_back(std::move(what));
  }
};

/// Times one public MountContext call: sched().Now() before and after.
class Recorder {
 public:
  Recorder(cfs::sim::Scheduler* sched, CallLog* log) : sched_(sched), log_(log) {}

  template <typename T>
  cfs::sim::Task<T> Call(Kind kind, const char* what, cfs::sim::Task<T> call) {
    const SimTime t0 = sched_->Now();
    T r = co_await std::move(call);
    const SimDuration took = sched_->Now() - t0;
    log_->attempted++;
    if (r.ok()) {
      (kind == Kind::kRead ? log_->read_us : log_->write_us).push_back(took);
    } else {
      log_->failed++;
      if (log_->errors.size() < 20) {
        log_->errors.push_back(std::string(what) + ": " + StatusOf(r).ToString());
      }
    }
    co_return r;
  }

  CallLog* log() { return log_; }

 private:
  static cfs::Status StatusOf(const cfs::Status& s) { return s; }
  template <typename V>
  static cfs::Status StatusOf(const cfs::Result<V>& r) {
    return r.status();
  }

  cfs::sim::Scheduler* sched_;
  CallLog* log_;
};

/// One benchmark workload on one freshly built cluster. The driver calls
/// Setup, Launch, then runs the scheduler until every process has finished
/// (calling Tick at the virtual times it asks for), then Verify.
class Workload {
 public:
  virtual ~Workload() = default;

  cfs::harness::Cluster& cluster() { return *cluster_; }
  const std::vector<cfs::client::Client*>& clients() const { return clients_; }

  /// Rounds with distinct input seeds whose per-call samples the virtual
  /// metrics pool: one round's inputs (which files are large, which disk
  /// turns gray, how the calls interleave) move its tail latencies by up to
  /// 10% from seed to seed.
  virtual size_t input_sets() const { return 8; }
  /// Build and start the cluster, create the volume, mount the clients and
  /// lay down any files. Exits the process on failure.
  virtual void Setup() = 0;
  /// Spawn the closed-loop processes; each decrements *running when done.
  virtual void Launch(Recorder* rec, int* running) = 0;
  /// Virtual time of the next Tick (never, by default).
  virtual SimTime next_tick() const { return INT64_MAX; }
  virtual void Tick() {}
  /// Check every process's final state against its model (after quiesce).
  virtual void Verify(CallLog* log) = 0;
  /// Per-layer metrics this workload leaves at zero, and why.
  virtual std::map<std::string, std::string> ExpectedZeros() const = 0;
  /// Virtual time from the gray-disk flip to the first suspect verdict
  /// (0 when the workload injects no gray disk or nothing was flagged).
  virtual SimDuration health_detect_us() const { return 0; }

 protected:
  std::unique_ptr<cfs::harness::Cluster> cluster_;
  std::vector<cfs::client::Client*> clients_;  // owned by the cluster
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool trace);
const std::vector<std::string>& WorkloadNames();

// --- Per-layer readers (layers.cc) -----------------------------------------

/// Counter `name` of a Cluster::Metrics() registry. Throws when the counter
/// is missing: a renamed or dropped counter must never read as 0.
uint64_t CounterOrThrow(const cfs::obs::Registry& reg, const std::string& name);

/// Cluster-wide RPC leg accounting summed over every registry (harness and
/// raft, masters, data nodes, clients).
struct RpcTotals {
  uint64_t legs = 0;        // ok + timeout + not_leader legs
  uint64_t not_leader = 0;
  uint64_t timeout = 0;
  uint64_t retries = 0;
};
RpcTotals SumRpc(Workload& w);

/// Bytes of raft log entries every replica currently retains, read through
/// the public LogStore accessors.
uint64_t RaftLogBytes(cfs::harness::Cluster& c);

/// Self time (duration minus the union of its children's intervals) of
/// every span created at index >= `first`, summed per span label.
struct LabelSelf {
  uint64_t spans = 0;
  uint64_t self_us = 0;
};
std::map<std::string, LabelSelf> SelfTimes(const std::vector<cfs::obs::Span>& spans,
                                           size_t first);

}  // namespace cfsbench
