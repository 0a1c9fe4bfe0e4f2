// Transport-level tests for the zero-allocation RPC engine (sim/network.h):
// pooled envelopes, slab promise slots, dense-id dispatch, watchdog
// cancellation, and the fault paths (drops, partitions, dead nodes).
//
// TransportGoldenHash pins the determinism digest of a mixed fault workload:
// a transport change must not move a single (from, to, bytes, type, time)
// tuple or (time, seq) pair. Re-capture it only for a deliberate
// schedule-changing transport change, and say why in the same commit — the
// struct names and namespace nesting below feed the digest via RTTI and must
// not change.
#include <gtest/gtest.h>

#include "sim/msg_type.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace cfs::sim {
namespace {

struct NetEchoReq {
  uint64_t x = 0;
};
struct NetEchoResp {
  uint64_t x = 0;
};
struct NetBulkReq {
  size_t bytes = 0;
  size_t WireBytes() const { return bytes; }
};
struct NetBulkResp {
  uint64_t bytes = 0;
};

void RegisterGoldenHandlers(Host* h) {
  h->Register<NetEchoReq, NetEchoResp>([](NetEchoReq r, NodeId) -> Task<NetEchoResp> {
    co_return NetEchoResp{r.x * 3};
  });
  h->Register<NetBulkReq, NetBulkResp>([](NetBulkReq r, NodeId) -> Task<NetBulkResp> {
    co_return NetBulkResp{r.bytes};
  });
}

Task<void> GoldenClient(Network& net, NodeId self, NodeId peer, uint64_t* ok,
                        uint64_t* failed) {
  for (uint64_t i = 0; i < 24; i++) {
    auto r = co_await net.Call<NetEchoReq, NetEchoResp>(self, peer, NetEchoReq{i},
                                                        400 * kMsec);
    if (r.ok()) {
      (*ok)++;
    } else {
      (*failed)++;
    }
    if (i % 6 == 0) {
      auto b = co_await net.Call<NetBulkReq, NetBulkResp>(self, peer,
                                                          NetBulkReq{256 * kKiB}, 2 * kSec);
      if (b.ok()) {
        (*ok)++;
      } else {
        (*failed)++;
      }
    }
  }
}

struct GoldenResult {
  uint64_t hash = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t timeouts_cancelled = 0;
  uint64_t timeouts_fired = 0;
  size_t envelopes_in_use = 0;
  size_t slots_in_use = 0;
};

/// Mixed transport workload: concurrent clients, message loss (RNG-driven
/// drops), a partition, and a crashed host — every path that feeds MixTrace
/// and the timeout watchdogs.
GoldenResult TransportGoldenScenario() {
  Scheduler sched(4242);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(2));
  RegisterGoldenHandlers(net.host(3));
  GoldenResult res;
  // Wave 1: clean traffic (every watchdog is cancelled by its reply).
  Spawn(GoldenClient(net, 1, 2, &res.ok, &res.failed));
  Spawn(GoldenClient(net, 1, 3, &res.ok, &res.failed));
  Spawn(GoldenClient(net, 2, 3, &res.ok, &res.failed));
  sched.Run();
  // Wave 2: message loss — RNG-driven drops, watchdogs fire for real.
  net.SetDropProbability(0.2);
  Spawn(GoldenClient(net, 1, 2, &res.ok, &res.failed));
  Spawn(GoldenClient(net, 2, 3, &res.ok, &res.failed));
  sched.Run();
  net.SetDropProbability(0);
  // Wave 3: partitioned pair times out, the healthy pair keeps flowing.
  net.SetPartitioned(1, 3, true);
  Spawn(GoldenClient(net, 1, 3, &res.ok, &res.failed));
  Spawn(GoldenClient(net, 1, 2, &res.ok, &res.failed));
  sched.Run();
  net.SetPartitioned(1, 3, false);
  // Wave 4: dead destination — requests vanish on delivery.
  net.host(3)->Crash();
  Spawn(GoldenClient(net, 2, 3, &res.ok, &res.failed));
  Spawn(GoldenClient(net, 1, 2, &res.ok, &res.failed));
  sched.Run();
  net.host(3)->Restart();
  // Wave 5: recovered host serves again.
  Spawn(GoldenClient(net, 1, 3, &res.ok, &res.failed));
  sched.Run();
  res.hash = sched.trace_hash();
  res.timeouts_cancelled = net.rpc_timeouts_cancelled();
  res.timeouts_fired = net.rpc_timeouts_fired();
  res.envelopes_in_use = net.envelope_pool().in_use();
  res.slots_in_use = net.rpc_slots_in_use();
  return res;
}

// Seed 4242. Each wave's Run() leaves Now() at its last executed event (a
// cancelled watchdog's deadline does not count), and the next wave starts
// from there.
constexpr uint64_t kGoldenTransportHash = 0xae0b70bb47dc7576ull;
constexpr uint64_t kGoldenOk = 197;
constexpr uint64_t kGoldenFailed = 83;

TEST(NetworkTransport, TransportGoldenHash) {
  GoldenResult r = TransportGoldenScenario();
  EXPECT_EQ(r.hash, kGoldenTransportHash);
  EXPECT_EQ(r.ok, kGoldenOk);
  EXPECT_EQ(r.failed, kGoldenFailed);
  // Every successful call cancelled its watchdog; every failed call let it
  // fire. Nothing pooled leaks once the run drains.
  EXPECT_EQ(r.timeouts_cancelled, r.ok);
  EXPECT_EQ(r.timeouts_fired, r.failed);
  EXPECT_EQ(r.envelopes_in_use, 0u);
  EXPECT_EQ(r.slots_in_use, 0u);
}

TEST(NetworkTransport, SameSeedSameHash) {
  GoldenResult a = TransportGoldenScenario();
  GoldenResult b = TransportGoldenScenario();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failed, b.failed);
}

Task<void> OneEcho(Network& net, NodeId self, NodeId peer, SimDuration timeout,
                   uint64_t* ok, uint64_t* failed) {
  auto r = co_await net.Call<NetEchoReq, NetEchoResp>(self, peer, NetEchoReq{7}, timeout);
  if (r.ok()) {
    EXPECT_EQ(r->x, 21u);
    (*ok)++;
  } else {
    EXPECT_TRUE(r.status().IsTimedOut());
    (*failed)++;
  }
}

TEST(NetworkTransport, DeadNodeDropsRequestAndFiresWatchdog) {
  Scheduler sched(7);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(2));
  net.host(2)->Crash();
  uint64_t ok = 0, failed = 0;
  Spawn(OneEcho(net, 1, 2, 200 * kMsec, &ok, &failed));
  sched.Run();
  EXPECT_EQ(ok, 0u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(net.rpc_timeouts_fired(), 1u);
  EXPECT_EQ(net.rpc_timeouts_cancelled(), 0u);
  // The dropped request's envelope went back to the pool.
  EXPECT_EQ(net.envelope_pool().in_use(), 0u);
  EXPECT_EQ(net.rpc_slots_in_use(), 0u);
}

struct ReplyObservation {
  bool ok = false;
  SimTime at = -1;
  size_t pending = 0;
};

Task<void> EchoAndObserve(Scheduler& sched, Network& net, SimDuration timeout,
                          ReplyObservation* obs) {
  auto r = co_await net.Call<NetEchoReq, NetEchoResp>(1, 2, NetEchoReq{7}, timeout);
  obs->ok = r.ok();
  obs->at = sched.Now();
  obs->pending = sched.pending();
}

TEST(NetworkTransport, DeliveredReplyRemovesItsWatchdog) {
  Scheduler sched(7);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(2));
  ReplyObservation obs;
  const uint64_t events_before = Scheduler::process_executed_events();
  Spawn(EchoAndObserve(sched, net, 1 * kSec, &obs));
  sched.Run();
  ASSERT_TRUE(obs.ok);
  // The reply cancelled the 1 s watchdog: nothing is left queued once the
  // caller holds its reply.
  EXPECT_EQ(obs.pending, 0u);
  EXPECT_EQ(net.rpc_timeouts_cancelled(), 1u);
  EXPECT_EQ(net.rpc_timeouts_fired(), 0u);
  // Request delivery, reply delivery, caller resume — no watchdog event.
  EXPECT_EQ(Scheduler::process_executed_events() - events_before, 3u);
  // Draining the queue stops at the reply, not at the watchdog's deadline.
  EXPECT_EQ(sched.Now(), obs.at);
  EXPECT_LT(sched.Now(), 1 * kSec);
}

TEST(NetworkTransport, PartitionIsSymmetric) {
  Scheduler sched(7);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(1));
  RegisterGoldenHandlers(net.host(2));
  net.SetPartitioned(2, 1, true);  // either argument order
  EXPECT_TRUE(net.IsPartitioned(1, 2));
  EXPECT_TRUE(net.IsPartitioned(2, 1));
  uint64_t ok = 0, failed = 0;
  Spawn(OneEcho(net, 1, 2, 200 * kMsec, &ok, &failed));
  Spawn(OneEcho(net, 2, 1, 200 * kMsec, &ok, &failed));
  sched.Run();
  EXPECT_EQ(failed, 2u);
  net.SetPartitioned(1, 2, false);
  Spawn(OneEcho(net, 1, 2, 200 * kMsec, &ok, &failed));
  Spawn(OneEcho(net, 2, 1, 200 * kMsec, &ok, &failed));
  sched.Run();
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(failed, 2u);
}

TEST(NetworkTransport, DropProbabilityIsDeterministic) {
  auto run = [] {
    Scheduler sched(99);
    Network net(&sched);
    net.AddHost();
    net.AddHost();
    RegisterGoldenHandlers(net.host(2));
    net.SetDropProbability(0.3);
    uint64_t ok = 0, failed = 0;
    Spawn(GoldenClient(net, 1, 2, &ok, &failed));
    sched.Run();
    return std::tuple{sched.trace_hash(), ok, failed};
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
  // The loss rate actually bit: some calls failed, some survived.
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
}

TEST(NetworkTransport, ClearHandlersDecommissionsNode) {
  Scheduler sched(7);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(2));
  uint64_t ok = 0, failed = 0;
  Spawn(OneEcho(net, 1, 2, 200 * kMsec, &ok, &failed));
  sched.Run();
  EXPECT_EQ(ok, 1u);
  net.host(2)->ClearHandlers();
  EXPECT_EQ(net.host(2)->FindHandler(MsgTypeIdOf<NetEchoReq>()), nullptr);
  Spawn(OneEcho(net, 1, 2, 200 * kMsec, &ok, &failed));
  sched.Run();
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(net.envelope_pool().in_use(), 0u);
}

Task<void> SequentialEchoes(Network& net, int n, uint64_t* ok, uint64_t* failed) {
  for (int i = 0; i < n; i++) {
    co_await OneEcho(net, 1, 2, 200 * kMsec, ok, failed);
  }
}

TEST(NetworkTransport, EnvelopeAndSlotSlabsAreRecycled) {
  Scheduler sched(7);
  Network net(&sched);
  net.AddHost();
  net.AddHost();
  RegisterGoldenHandlers(net.host(2));
  uint64_t ok = 0, failed = 0;
  Spawn(SequentialEchoes(net, 500, &ok, &failed));
  sched.Run();
  EXPECT_EQ(ok, 500u);
  EXPECT_EQ(failed, 0u);
  // 500 sequential calls reuse the same handful of nodes: one pool chunk and
  // a couple of slots, never one-per-call.
  EXPECT_EQ(net.envelope_pool().in_use(), 0u);
  EXPECT_LE(net.envelope_pool().capacity(), 128u);
  EXPECT_EQ(net.rpc_slots_in_use(), 0u);
  EXPECT_LE(net.rpc_slot_capacity(), 4u);
}

TEST(NetworkTransport, SpanLabelsAreInterned) {
  // One allocation per type at registration; repeated lookups return the
  // same string object.
  const std::string& a = MsgSpanRpc<NetEchoReq>();
  const std::string& b = MsgSpanRpc<NetEchoReq>();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(MsgSpanHandler<NetEchoReq>().substr(0, 8), "handler:");
  EXPECT_EQ(MsgSpanCall<NetEchoReq>().substr(0, 5), "call:");
  EXPECT_EQ(MsgTypeIdOf<NetEchoReq>(), MsgTypeIdOf<NetEchoReq>());
}

}  // namespace
}  // namespace cfs::sim
