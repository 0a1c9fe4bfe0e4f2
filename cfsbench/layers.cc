// Per-layer readers: named registry counters, RPC leg totals, retained raft
// log bytes and span self times.
#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"

namespace cfsbench {

using namespace cfs;

uint64_t CounterOrThrow(const obs::Registry& reg, const std::string& name) {
  auto it = reg.counters().find(name);
  if (it == reg.counters().end()) {
    throw std::runtime_error("per-layer counter '" + name + "' is missing from Cluster::Metrics()");
  }
  return it->second;
}

RpcTotals SumRpc(Workload& w) {
  harness::Cluster& c = w.cluster();
  RpcTotals t;
  auto add = [&t](const rpc::MetricRegistry& r) {
    t.legs += r.TotalLegs();
    t.not_leader += r.TotalCount(rpc::Outcome::kNotLeader);
    t.timeout += r.TotalCount(rpc::Outcome::kTimeout);
    for (const auto& [name, m] : r.by_rpc()) t.retries += m.retries;
  };
  add(c.rpc_metrics());
  for (int i = 0; i < c.options().num_masters; i++) add(c.master(i)->rpc_metrics());
  for (int i = 0; i < c.num_nodes(); i++) add(c.data_node(i)->rpc_metrics());
  for (client::Client* cl : w.clients()) add(cl->rpc_metrics());
  return t;
}

uint64_t RaftLogBytes(harness::Cluster& c) {
  uint64_t total = 0;
  const int hosts = c.options().num_masters + c.num_nodes();
  for (int h = 0; h < hosts; h++) {
    raft::RaftHost* rh = c.raft_host_of(h);
    for (raft::GroupId gid : rh->GroupIds()) {
      const raft::LogStore& log = rh->Get(gid)->log();
      for (raft::Index i = log.first_index(); i <= log.last_index(); i++) {
        total += log.At(i).data.size();
      }
    }
  }
  return total;
}

std::map<std::string, LabelSelf> SelfTimes(const std::vector<obs::Span>& spans, size_t first) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size() - first);
  for (size_t i = first; i < spans.size(); i++) by_id.emplace(spans[i].span_id, i);

  // (parent index, child start, child end), grouped by parent in start order.
  struct Child {
    size_t parent;
    SimTime start, end;
  };
  std::vector<Child> kids;
  kids.reserve(spans.size() - first);
  for (size_t i = first; i < spans.size(); i++) {
    if (spans[i].parent_id == 0) continue;
    auto it = by_id.find(spans[i].parent_id);
    if (it != by_id.end()) kids.push_back({it->second, spans[i].start, spans[i].end});
  }
  std::sort(kids.begin(), kids.end(), [](const Child& a, const Child& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.start < b.start;
  });

  // Covered length of each parent: union of its children clipped to it.
  std::vector<SimDuration> covered(spans.size() - first, 0);
  for (size_t k = 0; k < kids.size();) {
    const obs::Span& p = spans[kids[k].parent];
    SimTime cur_lo = 0, cur_hi = -1;
    SimDuration sum = 0;
    size_t j = k;
    for (; j < kids.size() && kids[j].parent == kids[k].parent; j++) {
      const SimTime lo = std::max(kids[j].start, p.start);
      const SimTime hi = std::min(kids[j].end, p.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) sum += cur_hi - cur_lo;
    covered[kids[k].parent - first] = sum;
    k = j;
  }

  std::unordered_map<std::string_view, LabelSelf> acc;
  for (size_t i = first; i < spans.size(); i++) {
    LabelSelf& l = acc[spans[i].name];
    l.spans++;
    l.self_us += static_cast<uint64_t>(spans[i].end - spans[i].start - covered[i - first]);
  }
  std::map<std::string, LabelSelf> out;
  for (const auto& [name, l] : acc) out.emplace(std::string(name), l);
  return out;
}

}  // namespace cfsbench
