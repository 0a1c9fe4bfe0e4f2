// Per-RPC observability for the service layer: outcome counters and
// fixed-bucket latency histograms keyed by request type. Every leg issued
// through rpc::Channel records (rpc name, outcome, latency); the retrying
// stubs additionally record retries and logical-call terminations
// (retry-exhausted, deadline-exceeded). Registries are plain value state —
// std::map keyed by name so dumps iterate deterministically — and are
// dumpable as JSON from benches and tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/units.h"
#include "obs/metrics.h"

namespace cfs::rpc {

/// Outcome of one RPC leg (first three) or of a whole logical call (last
/// two). kOk means the response was delivered — application errors other
/// than NotLeader ride inside the response status and are the caller's
/// business, not the transport's.
enum class Outcome : int {
  kOk = 0,
  kTimeout,            ///< network-level failure (lost, dead node, timed out)
  kNotLeader,          ///< response said "not leader"; routing retries
  kRetryExhausted,     ///< logical call ran out of its attempt budget
  kDeadlineExceeded,   ///< logical call hit its propagated deadline
  kNumOutcomes,
};

std::string_view OutcomeName(Outcome o);

struct RpcMetrics {
  uint64_t outcomes[static_cast<int>(Outcome::kNumOutcomes)] = {};
  uint64_t retries = 0;  // legs beyond the first of a logical call
  obs::Histogram latency;

  uint64_t Count(Outcome o) const { return outcomes[static_cast<int>(o)]; }
  void MergeFrom(const RpcMetrics& other);
};

class MetricRegistry {
 public:
  /// One RPC leg completed with `o` after `latency_usec` of virtual time.
  void RecordLeg(std::string_view rpc, Outcome o, SimDuration latency_usec);
  /// A retry leg is about to be issued for `rpc`.
  void RecordRetry(std::string_view rpc);
  /// A logical call terminated without a delivered success (kRetryExhausted
  /// or kDeadlineExceeded); counted, no latency sample.
  void RecordCallOutcome(std::string_view rpc, Outcome o);

  const RpcMetrics* Find(std::string_view rpc) const;
  const std::map<std::string, RpcMetrics, std::less<>>& by_rpc() const { return by_rpc_; }

  uint64_t TotalLegs() const;
  uint64_t TotalCount(Outcome o) const;

  void MergeFrom(const MetricRegistry& other);
  void Clear() { by_rpc_.clear(); }

  /// {"<rpc>":{"ok":n,...,"retries":n,"latency":{"count":n,"sum_usec":n,
  /// "max_usec":n,"buckets":[...]}},...} — stable key order (std::map).
  std::string DumpJson() const;

  /// Fold into a unified registry: counters "<prefix><rpc>.<outcome>" and
  /// "<prefix><rpc>.retries", histogram "<prefix><rpc>.latency_usec".
  void ExportTo(obs::Registry* out, std::string_view prefix = "rpc.") const;

 private:
  std::map<std::string, RpcMetrics, std::less<>> by_rpc_;
};

}  // namespace cfs::rpc
