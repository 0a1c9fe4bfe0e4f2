// Invariant-checker tests (see common/check.h and DESIGN.md "Invariant
// catalog"). For every subsystem: a positive test proving the checker stays
// quiet on healthy state, and a negative test seeding a deliberate
// violation and asserting the checker fires — a checker that cannot fail
// verifies nothing.
#include <gtest/gtest.h>

#include "datanode/data_partition.h"
#include "harness/cluster.h"
#include "meta/meta_partition.h"
#include "raft/invariants.h"
#include "sim/network.h"
#include "storage/extent_store.h"

namespace cfs {
namespace {

using meta::kRootInode;

// --- Raft protocol checker ---------------------------------------------------

raft::ReplicaSnapshot MakeReplica(sim::NodeId node, raft::Term term,
                                  std::vector<std::pair<raft::Term, std::string>> log,
                                  raft::Index commit, bool leader = false) {
  raft::ReplicaSnapshot r;
  r.node = node;
  r.term = term;
  r.commit = commit;
  r.applied = commit;
  r.is_leader = leader;
  raft::Index index = 1;
  for (auto& [t, data] : log) {
    raft::LogEntry e;
    e.index = index++;
    e.term = t;
    e.data = cfs::Buffer::CopyOf(data);
    r.entries.push_back(std::move(e));
  }
  return r;
}

TEST(RaftInvariants, ConsistentGroupPasses) {
  std::vector<raft::ReplicaSnapshot> group;
  group.push_back(MakeReplica(1, 2, {{1, "a"}, {2, "b"}}, 2, /*leader=*/true));
  group.push_back(MakeReplica(2, 2, {{1, "a"}, {2, "b"}}, 2));
  group.push_back(MakeReplica(3, 2, {{1, "a"}}, 1));  // lagging follower
  InvariantReport report;
  raft::CheckRaftGroup(group, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RaftInvariants, TwoLeadersInOneTermFires) {
  std::vector<raft::ReplicaSnapshot> group;
  group.push_back(MakeReplica(1, 3, {{3, "a"}}, 1, /*leader=*/true));
  group.push_back(MakeReplica(2, 3, {{3, "a"}}, 1, /*leader=*/true));
  InvariantReport report;
  raft::CheckRaftGroup(group, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("both leaders in term 3"), std::string::npos)
      << report.ToString();
}

TEST(RaftInvariants, LogMatchingViolationFires) {
  std::vector<raft::ReplicaSnapshot> group;
  group.push_back(MakeReplica(1, 2, {{1, "a"}, {2, "payload-x"}}, 1));
  group.push_back(MakeReplica(2, 2, {{1, "a"}, {2, "payload-y"}}, 1));
  InvariantReport report;
  raft::CheckRaftGroup(group, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("disagree on data at index 2"), std::string::npos)
      << report.ToString();
}

TEST(RaftInvariants, CommitBeyondLastIndexFires) {
  auto r = MakeReplica(1, 1, {{1, "a"}}, 1);
  r.commit = 9;  // only one entry exists
  InvariantReport report;
  raft::CheckRaftGroup({r}, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("commit index 9 > last log index 1"),
            std::string::npos)
      << report.ToString();
}

TEST(RaftInvariants, TermRegressionInLogFires) {
  auto r = MakeReplica(1, 5, {{3, "a"}, {2, "b"}}, 0);
  InvariantReport report;
  raft::CheckRaftGroup({r}, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("term regressed"), std::string::npos)
      << report.ToString();
}

TEST(RaftInvariants, CommittedPrefixTermDisagreementFires) {
  // Both replicas consider index 1 committed but store different terms for
  // it — committed state may never diverge.
  std::vector<raft::ReplicaSnapshot> group;
  group.push_back(MakeReplica(1, 3, {{1, "a"}}, 1));
  group.push_back(MakeReplica(2, 3, {{2, "b"}}, 1));
  InvariantReport report;
  raft::CheckRaftGroup(group, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("committed entry term"), std::string::npos)
      << report.ToString();
}

// --- Extent store checker ----------------------------------------------------

class ExtentInvariants : public ::testing::Test {
 protected:
  ExtentInvariants() : net_(&sched_) {
    host_ = net_.AddHost();
    store_ = std::make_unique<storage::ExtentStore>(host_->disk(0));
  }

  void Fill() {
    sim::Spawn([](storage::ExtentStore* store) -> sim::Task<void> {
      storage::ExtentId id = store->CreateExtent();
      (void)co_await store->PlaceAt(id, 0, std::string(4096, 'x'));
      (void)co_await store->WriteSmall(std::string(100, 's'));
    }(store_.get()));
    sched_.Run();
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<storage::ExtentStore> store_;
};

TEST_F(ExtentInvariants, HealthyStorePasses) {
  Fill();
  InvariantReport report;
  store_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ExtentInvariants, CachedCrcCorruptionFires) {
  Fill();
  storage::Extent* e = store_->MutableExtentForTest(1);
  ASSERT_NE(e, nullptr);
  e->crc ^= 0xdeadbeef;  // silent cache corruption
  InvariantReport report;
  store_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("cached CRC disagrees"), std::string::npos)
      << report.ToString();
}

TEST_F(ExtentInvariants, PunchHoleBookkeepingDriftFires) {
  Fill();
  storage::Extent* e = store_->MutableExtentForTest(1);
  ASSERT_NE(e, nullptr);
  e->punched_bytes += 512;  // punched bytes no longer equal the hole sum
  InvariantReport report;
  store_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("punched_bytes"), std::string::npos)
      << report.ToString();
}

// --- Data partition checker --------------------------------------------------

class DataPartitionInvariants : public ::testing::Test {
 protected:
  DataPartitionInvariants() : net_(&sched_) {
    host_ = net_.AddHost();
    raft_ = std::make_unique<raft::RaftHost>(&net_, host_);
    data::DataPartitionConfig cfg;
    cfg.id = 1;
    cfg.replicas = {host_->id()};
    part_ = std::make_unique<data::DataPartition>(cfg, &net_, host_, raft_.get());
    EXPECT_TRUE(part_->store().ImportExtent(7, 64 * kKiB, /*tiny=*/false).ok());
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<raft::RaftHost> raft_;
  std::unique_ptr<data::DataPartition> part_;
};

TEST_F(DataPartitionInvariants, HealthyPartitionPasses) {
  part_->set_committed(7, 64 * kKiB);
  InvariantReport report;
  part_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(DataPartitionInvariants, CommittedBeyondLocalExtentFires) {
  // The committed offset is "the largest offset committed by ALL replicas"
  // (§2.2.5); it can never exceed any replica's local extent size.
  part_->set_committed(7, 128 * kKiB);
  InvariantReport report;
  part_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("committed offset"), std::string::npos)
      << report.ToString();
}

TEST_F(DataPartitionInvariants, UnmergedDurableRangeFires) {
  // MarkDurable must fold any range touching the committed prefix into it;
  // a range at or below committed left in the map means the fold is broken.
  part_->MarkDurable(7, 8 * kKiB, 16 * kKiB);  // beyond committed: buffered
  part_->set_committed(7, 32 * kKiB);          // forced baseline supersedes it
  InvariantReport clean;
  part_->CheckInvariants(&clean);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  part_->MarkDurable(7, 40 * kKiB, 48 * kKiB);
  part_->set_committed(7, 44 * kKiB);  // cuts INTO the range: must be pruned
  InvariantReport report;
  part_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("not merged into committed prefix"),
            std::string::npos)
      << report.ToString();
}

// --- Meta partition checker --------------------------------------------------

class MetaPartitionInvariants : public ::testing::Test {
 protected:
  MetaPartitionInvariants() : net_(&sched_) {
    host_ = net_.AddHost();
    meta::MetaPartitionConfig cfg;
    cfg.id = 1;
    cfg.volume = 1;
    cfg.create_root = true;
    part_ = std::make_unique<meta::MetaPartition>(cfg, host_);
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<meta::MetaPartition> part_;
};

TEST_F(MetaPartitionInvariants, HealthyPartitionPasses) {
  part_->Apply(1, Buffer::FromString(
                      meta::MetaPartition::EncodeCreateInode(meta::FileType::kFile, "", 0)));
  meta::Dentry d{kRootInode, "f", 2, meta::FileType::kFile};
  part_->Apply(2, Buffer::FromString(meta::MetaPartition::EncodeCreateDentry(d)));
  InvariantReport report;
  part_->CheckInvariants(&report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(MetaPartitionInvariants, NlinkBelowFloorFires) {
  part_->Apply(1, Buffer::FromString(
                      meta::MetaPartition::EncodeCreateInode(meta::FileType::kFile, "", 0)));
  meta::Inode* ino = part_->MutableInodeForTest(2);
  ASSERT_NE(ino, nullptr);
  ino->nlink = 0;  // live file with zero links and no delete mark
  InvariantReport report;
  part_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("below its floor"), std::string::npos)
      << report.ToString();
}

TEST_F(MetaPartitionInvariants, DeletedInodeMissingFromFreeListFires) {
  part_->Apply(1, Buffer::FromString(
                      meta::MetaPartition::EncodeCreateInode(meta::FileType::kFile, "", 0)));
  meta::Inode* ino = part_->MutableInodeForTest(2);
  ASSERT_NE(ino, nullptr);
  ino->flag |= meta::kInodeDeleteMark;  // marked deleted behind the op path
  InvariantReport report;
  part_->CheckInvariants(&report);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("missing from the free list"), std::string::npos)
      << report.ToString();
}

// --- Cluster-level checks ----------------------------------------------------

class ClusterInvariants : public ::testing::Test {
 protected:
  void Boot() {
    harness::ClusterOptions opts;
    opts.num_nodes = 5;
    cluster_ = std::make_unique<harness::Cluster>(opts);
    ASSERT_TRUE(harness::RunTask(cluster_->sched(), cluster_->Start())->ok());
    ASSERT_TRUE(
        harness::RunTask(cluster_->sched(), cluster_->CreateVolume("v", 3, 8))->ok());
    auto c = harness::RunTask(cluster_->sched(), cluster_->MountClient("v"));
    ASSERT_TRUE(c->ok());
    client_ = **c;
    m_ = client_->default_mount();
  }

  template <typename T>
  T Run(sim::Task<T> t) {
    auto out = harness::RunTask(cluster_->sched(), std::move(t));
    EXPECT_TRUE(out.has_value()) << "task hung";
    return std::move(*out);
  }

  std::unique_ptr<harness::Cluster> cluster_;
  client::Client* client_ = nullptr;
  client::MountContext* m_ = nullptr;  // client_->default_mount()
};

TEST_F(ClusterInvariants, HealthyClusterWithTrafficPasses) {
  Boot();
  for (int i = 0; i < 10; i++) {
    auto f = Run(m_->Create(kRootInode, "f" + std::to_string(i),
                            meta::FileType::kFile));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(Run(m_->Open(f->id)).ok());
    ASSERT_TRUE(Run(m_->Write(f->id, 0, std::string(32 * kKiB, 'd'))).ok());
    ASSERT_TRUE(Run(m_->Close(f->id)).ok());
  }
  cluster_->sched().RunFor(2 * kSec);
  InvariantReport report = cluster_->CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ClusterInvariants, DanglingDentryFires) {
  Boot();
  // Seed the violation on a meta raft-leader replica's state machine: a
  // dentry whose inode id lies inside an owned range but was never created.
  meta::MetaPartition* leader = nullptr;
  for (int i = 0; i < cluster_->num_nodes() && !leader; i++) {
    for (meta::PartitionId pid : cluster_->meta_node(i)->PartitionIds()) {
      raft::RaftNode* rn = cluster_->meta_node(i)->GetRaft(pid);
      if (rn && rn->IsLeader()) {
        leader = cluster_->meta_node(i)->GetPartition(pid);
        break;
      }
    }
  }
  ASSERT_NE(leader, nullptr);
  meta::InodeId ghost = leader->config().start + 999;
  meta::Dentry d{kRootInode, "ghost", ghost, meta::FileType::kFile};
  leader->Apply(1u << 20, Buffer::FromString(meta::MetaPartition::EncodeCreateDentry(d)));
  InvariantReport report = cluster_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("dangles"), std::string::npos) << report.ToString();
}

TEST_F(ClusterInvariants, CommittedOffsetBeyondReplicasFires) {
  Boot();
  auto f = Run(m_->Create(kRootInode, "big.bin", meta::FileType::kFile));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(Run(m_->Open(f->id)).ok());
  ASSERT_TRUE(Run(m_->Write(f->id, 0, std::string(256 * kKiB, 'w'))).ok());
  ASSERT_TRUE(Run(m_->Close(f->id)).ok());
  cluster_->sched().RunFor(1 * kSec);
  ASSERT_TRUE(cluster_->CheckInvariants().ok());

  // Chain-leader bookkeeping claims more bytes committed than any replica
  // (including itself) durably holds: the §2.2.5 contract is broken.
  data::DataPartition* chain_leader = nullptr;
  storage::ExtentId extent = 0;
  for (int i = 0; i < cluster_->num_nodes() && !chain_leader; i++) {
    for (data::PartitionId pid : cluster_->data_node(i)->PartitionIds()) {
      data::DataPartition* p = cluster_->data_node(i)->GetPartition(pid);
      if (p->IsChainLeader() && p->store().num_extents() > 0) {
        chain_leader = p;
        p->store().ForEach([&](const storage::Extent& e) { extent = e.id; });
        break;
      }
    }
  }
  ASSERT_NE(chain_leader, nullptr);
  chain_leader->set_committed(extent,
                              chain_leader->store().ExtentSize(extent) + 64 * kKiB);
  InvariantReport report = cluster_->CheckInvariants();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("committed"), std::string::npos)
      << report.ToString();
}

// --- Determinism auditor: the negative case ----------------------------------

TEST(DeterminismAuditor, DivergentRunsProduceDifferentHashes) {
  // A scenario whose event sequence depends on anything but the seed must
  // change the trace hash — that is the auditor's entire detection power.
  auto run = [](int events) {
    sim::Scheduler s(42);
    for (int i = 0; i < events; i++) s.At(i * 10, [] {});
    s.Run();
    return s.trace_hash();
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(DeterminismAuditor, MessageTrafficFeedsTheHash) {
  // Two identical runs agree; injecting one extra message diverges them.
  auto run = [](bool extra) {
    sim::Scheduler sched(7);
    sim::Network net(&sched);
    sim::Host* a = net.AddHost();
    sim::Host* b = net.AddHost();
    struct Ping {
      uint64_t n = 0;
    };
    struct Pong {};
    b->Register<Ping, Pong>([](Ping, sim::NodeId) -> sim::Task<Pong> { co_return Pong{}; });
    sim::Spawn([](sim::Network* net, sim::Host* a, sim::Host* b,
                  bool extra) -> sim::Task<void> {
      (void)co_await net->Call<Ping, Pong>(a->id(), b->id(), Ping{1}, 1 * kSec);
      if (extra) {
        (void)co_await net->Call<Ping, Pong>(a->id(), b->id(), Ping{2}, 1 * kSec);
      }
    }(&net, a, b, extra));
    sched.Run();
    return sched.trace_hash();
  };
  EXPECT_EQ(run(false), run(false));
  EXPECT_NE(run(false), run(true));
}

}  // namespace
}  // namespace cfs
