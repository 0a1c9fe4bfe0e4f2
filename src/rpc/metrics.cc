#include "rpc/metrics.h"

namespace cfs::rpc {

std::string_view OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kNotLeader: return "not_leader";
    case Outcome::kRetryExhausted: return "retry_exhausted";
    case Outcome::kDeadlineExceeded: return "deadline_exceeded";
    default: return "unknown";
  }
}

void RpcMetrics::MergeFrom(const RpcMetrics& other) {
  for (int i = 0; i < static_cast<int>(Outcome::kNumOutcomes); i++) {
    outcomes[i] += other.outcomes[i];
  }
  retries += other.retries;
  latency.MergeFrom(other.latency);
}

void MetricRegistry::RecordLeg(std::string_view rpc, Outcome o, SimDuration latency_usec) {
  // Transparent find first: the steady-state hit path must not materialize a
  // std::string per leg (this runs once per RPC in the cluster).
  auto it = by_rpc_.find(rpc);
  RpcMetrics& m = it != by_rpc_.end() ? it->second : by_rpc_[std::string(rpc)];
  m.outcomes[static_cast<int>(o)]++;
  m.latency.Add(latency_usec);
}

void MetricRegistry::RecordRetry(std::string_view rpc) {
  auto it = by_rpc_.find(rpc);
  RpcMetrics& m = it != by_rpc_.end() ? it->second : by_rpc_[std::string(rpc)];
  m.retries++;
}

void MetricRegistry::RecordCallOutcome(std::string_view rpc, Outcome o) {
  by_rpc_[std::string(rpc)].outcomes[static_cast<int>(o)]++;
}

const RpcMetrics* MetricRegistry::Find(std::string_view rpc) const {
  auto it = by_rpc_.find(rpc);
  return it == by_rpc_.end() ? nullptr : &it->second;
}

uint64_t MetricRegistry::TotalLegs() const {
  uint64_t n = 0;
  for (const auto& [name, m] : by_rpc_) n += m.latency.count;
  return n;
}

uint64_t MetricRegistry::TotalCount(Outcome o) const {
  uint64_t n = 0;
  for (const auto& [name, m] : by_rpc_) n += m.Count(o);
  return n;
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  for (const auto& [name, m] : other.by_rpc_) by_rpc_[name].MergeFrom(m);
}

std::string MetricRegistry::DumpJson() const {
  std::string out = "{";
  bool first_rpc = true;
  for (const auto& [name, m] : by_rpc_) {
    if (!first_rpc) out += ",";
    first_rpc = false;
    out += "\"" + name + "\":{";
    for (int i = 0; i < static_cast<int>(Outcome::kNumOutcomes); i++) {
      out += "\"" + std::string(OutcomeName(static_cast<Outcome>(i))) +
             "\":" + std::to_string(m.outcomes[i]) + ",";
    }
    out += "\"retries\":" + std::to_string(m.retries) + ",";
    out += "\"latency\":" + m.latency.DumpJson() + "}";
  }
  out += "}";
  return out;
}

void MetricRegistry::ExportTo(obs::Registry* out, std::string_view prefix) const {
  for (const auto& [name, m] : by_rpc_) {
    const std::string base = std::string(prefix) + name;
    for (int i = 0; i < static_cast<int>(Outcome::kNumOutcomes); i++) {
      if (m.outcomes[i]) {
        out->Add(base + "." + std::string(OutcomeName(static_cast<Outcome>(i))),
                 m.outcomes[i]);
      }
    }
    if (m.retries) out->Add(base + ".retries", m.retries);
    out->MergeHistogram(base + ".latency_usec", m.latency);
  }
}

}  // namespace cfs::rpc
