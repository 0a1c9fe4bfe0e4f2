// The benchmark workloads. Each builds a paper-shaped cluster (10
// storage machines with meta and data colocated, 3 masters; §4.1), drives
// it only through public client::MountContext calls from closed-loop
// simulated processes (coroutines on the DES, a fixed number of calls each),
// and keeps a model of what every process should observe.
//
// All inputs (names, sizes, offsets, payload bytes, action mix) come from
// the workload seed. The cluster seed is the same value, so one seed fixes
// the whole run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace cfsbench {

using namespace cfs;
using client::MountContext;
using meta::FileType;
using meta::InodeId;

namespace {

/// Run a set-up coroutine to completion; exits the process on failure.
void MustOk(harness::Cluster& c, sim::Task<Status> t, const char* what) {
  auto r = harness::RunTask(c.sched(), std::move(t));
  if (!r || !r->ok()) {
    std::fprintf(stderr, "cfsbench: setup step '%s' failed: %s\n", what,
                 r ? r->ToString().c_str() : "did not finish");
    std::exit(2);
  }
}

template <typename T>
T MustValue(harness::Cluster& c, sim::Task<Result<T>> t, const char* what) {
  auto r = harness::RunTask(c.sched(), std::move(t));
  if (!r || !r->ok()) {
    std::fprintf(stderr, "cfsbench: setup step '%s' failed: %s\n", what,
                 r ? r->status().ToString().c_str() : "did not finish");
    std::exit(2);
  }
  return std::move(**r);
}

harness::ClusterOptions PaperCluster(uint64_t seed, bool trace) {
  harness::ClusterOptions o;
  o.num_nodes = 10;
  o.num_masters = 3;
  o.seed = seed;
  o.trace = trace;
  o.track_contents = true;  // real bytes: read-backs are checked
  return o;
}

/// Seeded random bytes; every payload is a slice of this buffer.
Buffer RandomPool(uint64_t seed, size_t bytes) {
  Rng rng(seed ^ 0x5eedb0bull);
  std::string s(bytes, '\0');
  for (size_t i = 0; i + 8 <= bytes; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(&s[i], &v, 8);
  }
  return Buffer::FromString(std::move(s));
}

/// Per-process input stream, decorrelated across processes.
Rng ProcRng(uint64_t seed, int proc) { return Rng(seed * 0x9e3779b97f4a7c15ull + proc + 1); }

/// n sizes at the log-uniform quantiles (i + 0.5) / n of [lo, hi], in a
/// seeded order: every seed draws the same sizes, dealt out differently.
std::vector<uint64_t> LogSpaced(Rng& rng, int n, uint64_t lo, uint64_t hi) {
  const double a = std::log(static_cast<double>(lo)), b = std::log(static_cast<double>(hi));
  std::vector<uint64_t> out;
  for (int i = 0; i < n; i++) {
    const double x = a + (i + 0.5) / n * (b - a);
    out.push_back(std::clamp<uint64_t>(static_cast<uint64_t>(std::exp(x)), lo, hi));
  }
  for (size_t i = out.size() - 1; i > 0; i--) std::swap(out[i], out[rng.Uniform(i + 1)]);
  return out;
}

std::vector<client::Client*> MountClients(harness::Cluster& c, const char* volume, int n) {
  std::vector<client::Client*> out;
  for (int i = 0; i < n; i++) out.push_back(MustValue(c, c.MountClient(volume), "mount"));
  return out;
}

constexpr uint64_t kChunk = 1 * kMiB;  // largest single Write/Read call

/// "<prefix><i>": entry and process names.
std::string Named(const char* prefix, uint64_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

// --- meta_mix ----------------------------------------------------------------

/// Namespace calls only, as mdtest's per-item calls. Set-up lays down each
/// process's home directory (four subdirectories, kPrelaid files) through a
/// set-up client that is then unmounted, so the timed clients start cold
/// with each client's namespace (16 x 300 own files, plus the 4,800 files of
/// the other client that its stats reach) above the 4,096-entry cache.
///
/// The timed loop runs blocks of one mdtest iteration over kItems new items:
/// create them, then in a seeded order stat kItems files of the neighbour
/// process on the other client (mdtest -N with N = processes per client),
/// look up kItems of the process's own files, remove the kItems new items,
/// and list one own subdirectory. Create, stat, lookup and remove come in
/// equal counts; the one readdirplus per block is an assumption (mdtest has
/// no listing call) and is 1 call in 25.
class MetaMix final : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kProcsPerClient = 16;
  static constexpr int kSubdirs = 4;
  static constexpr int kPrelaid = 300;  // files per process laid down in set-up
  static constexpr int kItems = 6;      // new items per block
  static constexpr int kBlocks = 48;    // 25 calls each: 1,200 calls per process
  // Few partition leaders for 32 processes: concurrent mutations queue per
  // leader, the group-commit regime of ablation A5.
  static constexpr uint32_t kMetaPartitions = 3;

  MetaMix(uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void Setup() override {
    cluster_ = std::make_unique<harness::Cluster>(PaperCluster(seed_, trace_));
    harness::Cluster& c = *cluster_;
    MustOk(c, c.Start(), "start");
    MustOk(c, c.CreateVolume("meta", kMetaPartitions, 10), "create volume");
    client::Client* setup = MustValue(c, c.MountClient("meta"), "mount set-up client");
    procs_.resize(kClients * kProcsPerClient);
    sim::Join laid(&c.sched(), static_cast<int>(procs_.size()));
    int failed = 0;
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      procs_[p].rng = ProcRng(seed_, p);
      sim::Spawn(LayDown(setup->default_mount(), p, &failed, laid.Arrive()));
    }
    if (!harness::RunTaskVoid(c.sched(), laid.Wait()) || failed) {
      std::fprintf(stderr, "cfsbench: setup step 'lay down namespace' failed\n");
      std::exit(2);
    }
    c.UnmountClient(setup);
    clients_ = MountClients(c, "meta", kClients);
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      procs_[p].m = clients_[p / kProcsPerClient]->default_mount();
    }
  }

  void Launch(Recorder* rec, int* running) override {
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      (*running)++;
      sim::Spawn(Run(rec, p, running));
    }
  }

  void Verify(CallLog* log) override {
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      Proc& pr = procs_[p];
      for (int k = 0; k < kSubdirs; k++) {
        auto r = harness::RunTask(cluster_->sched(), pr.m->ReadDir(pr.dirs[k]));
        if (!r || !r->ok()) {
          log->Wrong("final readdir of " + Named("p", p) + "/" + Named("d", k) + " failed");
          continue;
        }
        std::vector<std::pair<std::string, InodeId>> got;
        for (const auto& d : **r) got.emplace_back(d.name, d.inode);
        if (Sorted(got) != Model(pr, k)) {
          log->Wrong("final listing of " + Named("p", p) + "/" + Named("d", k) +
                     " differs from its model");
        }
      }
    }
  }

  std::map<std::string, std::string> ExpectedZeros() const override {
    return {
        {"sim.disk_write_bytes_per_user_byte", "namespace calls only: no user bytes written"},
        {"client.window_stalls_per_write", "namespace calls only: no Write calls"},
        {"client.window_self_vus", "namespace calls only: no sequential-write window"},
        {"datanode.chain_hop_vus", "namespace calls only: no chain-replicated data"},
        {"disk.read_self_vus", "metadata is served from memory: no traced disk reads"},
        {"obs.health_detect_vus", "health telemetry is off and no disk is slowed"},
    };
  }

 private:
  struct Entry {
    int dir;
    std::string name;
    InodeId ino;
  };
  struct Proc {
    MountContext* m = nullptr;
    InodeId dirs[kSubdirs] = {};
    std::vector<Entry> prelaid;  // never removed: the neighbour's stats target these
    std::vector<Entry> items;    // created in the current block
    uint64_t next_name = 0;
    Rng rng;
  };
  enum Act { kStat, kLookup, kRemove, kList };

  static std::vector<std::pair<std::string, InodeId>> Sorted(
      std::vector<std::pair<std::string, InodeId>> v) {
    std::sort(v.begin(), v.end());
    return v;
  }
  static std::vector<std::pair<std::string, InodeId>> Model(const Proc& pr, int k) {
    std::vector<std::pair<std::string, InodeId>> v;
    for (const auto* set : {&pr.prelaid, &pr.items}) {
      for (const Entry& e : *set) {
        if (e.dir == k) v.emplace_back(e.name, e.ino);
      }
    }
    return Sorted(std::move(v));
  }

  sim::Task<void> LayDown(MountContext* m, int p, int* failed, std::function<void()> done) {
    Proc* pr = &procs_[p];
    auto home = co_await m->Create(meta::kRootInode, Named("p", p), FileType::kDir);
    bool ok = home.ok();
    for (int k = 0; k < kSubdirs && ok; k++) {
      auto d = co_await m->Create(home->id, Named("d", k), FileType::kDir);
      ok = d.ok();
      if (ok) pr->dirs[k] = d->id;
    }
    for (int i = 0; i < kPrelaid && ok; i++) {
      const int k = i % kSubdirs;
      std::string name = Named("f", pr->next_name++);
      auto f = co_await m->Create(pr->dirs[k], name, FileType::kFile);
      ok = f.ok();
      if (ok) pr->prelaid.push_back({k, std::move(name), f->id});
    }
    if (!ok) (*failed)++;
    done();
  }

  sim::Task<void> Run(Recorder* rec, int p, int* running) {
    for (int b = 0; b < kBlocks; b++) co_await Block(rec, p);
    (*running)--;
  }

  sim::Task<void> Block(Recorder* rec, int p) {
    Proc* pr = &procs_[p];
    const std::string who = Named("p", p);
    for (int i = 0; i < kItems; i++) {
      const int k = static_cast<int>(pr->rng.Uniform(kSubdirs));
      std::string name = Named("f", pr->next_name++);
      auto r = co_await rec->Call(Kind::kWrite, "Create",
                                  pr->m->Create(pr->dirs[k], name, FileType::kFile));
      if (r.ok()) pr->items.push_back({k, std::move(name), r->id});
    }
    std::vector<Act> acts;
    for (Act a : {kStat, kLookup, kRemove}) acts.insert(acts.end(), kItems, a);
    acts.push_back(kList);
    for (size_t i = acts.size() - 1; i > 0; i--) std::swap(acts[i], acts[pr->rng.Uniform(i + 1)]);

    const Proc& neighbour = procs_[(p + kProcsPerClient) % procs_.size()];
    for (Act act : acts) {
      switch (act) {
        case kStat: {
          const Entry& e = neighbour.prelaid[pr->rng.Uniform(kPrelaid)];
          const InodeId ino = e.ino;
          auto r = co_await rec->Call(Kind::kRead, "GetInode", pr->m->GetInode(ino));
          if (r.ok() && (r->id != ino || r->IsDir() || r->nlink == 0)) {
            rec->log()->Wrong(who + " stat of a neighbour's file returned a wrong inode");
          }
          break;
        }
        case kLookup: {
          const size_t i = pr->rng.Uniform(pr->prelaid.size() + pr->items.size());
          const Entry e = i < pr->prelaid.size() ? pr->prelaid[i]
                                                 : pr->items[i - pr->prelaid.size()];
          auto r =
              co_await rec->Call(Kind::kRead, "Lookup", pr->m->Lookup(pr->dirs[e.dir], e.name));
          if (r.ok() && r->inode != e.ino) {
            rec->log()->Wrong(who + " lookup of " + e.name + " returned another inode");
          }
          break;
        }
        case kRemove: {
          if (pr->items.empty()) break;  // only after a failed create
          const size_t i = pr->rng.Uniform(pr->items.size());
          const Entry e = pr->items[i];
          Status st = co_await rec->Call(Kind::kWrite, "Unlink",
                                         pr->m->Unlink(pr->dirs[e.dir], e.name));
          if (st.ok()) {
            pr->items[i] = std::move(pr->items.back());
            pr->items.pop_back();
          }
          break;
        }
        case kList: {
          const int k = static_cast<int>(pr->rng.Uniform(kSubdirs));
          auto r =
              co_await rec->Call(Kind::kRead, "ReadDirPlus", pr->m->ReadDirPlus(pr->dirs[k]));
          if (r.ok()) {
            std::vector<std::pair<std::string, InodeId>> got;
            for (const auto& [d, ino] : *r) got.emplace_back(d.name, ino.id);
            if (Sorted(got) != Model(*pr, k)) {
              rec->log()->Wrong(who + " listing of " + Named("d", k) +
                                " differs from its model");
            }
          }
          break;
        }
      }
    }
  }

  uint64_t seed_;
  bool trace_;
  std::vector<Proc> procs_;
};

// --- file_lifecycle ------------------------------------------------------------

/// Holds each caller of Arrive() until all n have called it.
class Barrier {
 public:
  Barrier(sim::Scheduler* sched, int n) : left_(n), done_(sched) {}
  sim::Task<void> Arrive() {
    if (--left_ == 0) {
      done_.NotifyAll();
      co_return;
    }
    co_await done_.Wait();
  }

 private:
  int left_;
  sim::Notifier done_;
};

/// The container-platform file path: create -> write (1 MiB calls) -> close
/// on the home client, lookup + read back (128 KiB calls, fio's sequential
/// block) on the next client, delete on the home client. Every fifth file
/// is large (256 KiB - 4 MiB, log-spaced), the rest small (4 - 128 KiB,
/// under the small-file threshold): most files are small, most bytes go to
/// large files.
///
/// The steps run in three phases, as mdtest and fio run theirs: every
/// process writes its files, then every process reads its files back, then
/// every process deletes them. Reads must not overlap other processes'
/// writes and purges: there the program fails (a read right after Close can
/// fail "read beyond committed offset"; a read racing an extent insert can
/// abort the process), as cfsbench/reference.json records.
class FileLifecycle final : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr int kProcsPerClient = 4;
  static constexpr int kFiles = 24;  // per process
  static constexpr uint64_t kPoolBytes = 16 * kMiB;
  static constexpr uint64_t kReadChunk = 128 * kKiB;

  FileLifecycle(uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  // The read tail comes from concurrent 128 KiB reads of large files meeting
  // on one disk, which varies most between inputs; rounds are short.
  size_t input_sets() const override { return 32; }

  void Setup() override {
    cluster_ = std::make_unique<harness::Cluster>(PaperCluster(seed_, trace_));
    harness::Cluster& c = *cluster_;
    MustOk(c, c.Start(), "start");
    MustOk(c, c.CreateVolume("files", 10, 30), "create volume");
    clients_ = MountClients(c, "files", kClients);
    pool_ = RandomPool(seed_, kPoolBytes);
    procs_.resize(kClients * kProcsPerClient);
    const int n = static_cast<int>(procs_.size());
    Rng rng(seed_);
    const int n_large = n * (kFiles / 5);  // files f with f % 5 == 4
    std::vector<uint64_t> large = LogSpaced(rng, n_large, 256 * kKiB, 4 * kMiB);
    std::vector<uint64_t> small = LogSpaced(rng, n * kFiles - n_large, 4 * kKiB, 128 * kKiB);
    for (int p = 0; p < n; p++) {
      Proc& pr = procs_[p];
      const int home = p / kProcsPerClient;
      pr.m = clients_[home]->default_mount();
      pr.peer = clients_[(home + 1) % kClients]->default_mount();
      for (int f = 0; f < kFiles; f++) {
        File& file = pr.files.emplace_back();
        std::vector<uint64_t>& sizes = f % 5 == 4 ? large : small;
        file.size = sizes.back();
        sizes.pop_back();
        file.base = rng.Uniform(kPoolBytes - file.size);
      }
      pr.dir = MustValue(c, pr.m->Create(meta::kRootInode, Named("p", p), FileType::kDir),
                         "mkdir").id;
    }
    written_ = std::make_unique<Barrier>(&c.sched(), n);
    read_ = std::make_unique<Barrier>(&c.sched(), n);
  }

  void Launch(Recorder* rec, int* running) override {
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      (*running)++;
      sim::Spawn(Run(rec, p, running));
    }
  }

  void Verify(CallLog* log) override {
    // Every file was deleted: each process directory must list empty.
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      auto r = harness::RunTask(cluster_->sched(), procs_[p].m->ReadDir(procs_[p].dir));
      if (!r || !r->ok() || !(*r)->empty()) {
        log->Wrong("directory of " + Named("p", p) + " is not empty after every delete");
      }
    }
  }

  std::map<std::string, std::string> ExpectedZeros() const override {
    return {{"obs.health_detect_vus", "health telemetry is off and no disk is slowed"}};
  }

 private:
  struct File {
    uint64_t size = 0;
    uint64_t base = 0;  // offset of its contents in pool_
    InodeId ino = 0;    // 0 until created, written and closed
  };
  struct Proc {
    MountContext* m = nullptr;     // home client: create, write, close, delete
    MountContext* peer = nullptr;  // another client: lookup and read back
    InodeId dir = 0;
    std::vector<File> files;
  };

  sim::Task<void> Run(Recorder* rec, int p, int* running) {
    for (int f = 0; f < kFiles; f++) co_await WriteFile(rec, p, f);
    co_await written_->Arrive();
    for (int f = 0; f < kFiles; f++) co_await ReadBack(rec, p, f);
    co_await read_->Arrive();
    Proc* pr = &procs_[p];
    for (int f = 0; f < kFiles; f++) {
      (void)co_await rec->Call(Kind::kWrite, "Unlink", pr->m->Unlink(pr->dir, Named("f", f)));
    }
    (*running)--;
  }

  sim::Task<void> WriteFile(Recorder* rec, int p, int f) {
    Proc* pr = &procs_[p];
    const File file = pr->files[f];
    auto created = co_await rec->Call(Kind::kWrite, "Create",
                                      pr->m->Create(pr->dir, Named("f", f), FileType::kFile));
    if (!created.ok()) co_return;
    const InodeId ino = created->id;
    bool written = true;
    for (uint64_t off = 0; off < file.size && written; off += kChunk) {
      const uint64_t len = std::min(kChunk, file.size - off);
      rec->log()->write_calls++;
      Status st = co_await rec->Call(Kind::kWrite, "Write",
                                     pr->m->Write(ino, off, pool_.Slice(file.base + off, len)));
      written = st.ok();
      if (written) rec->log()->user_bytes_written += len;
    }
    Status closed = co_await rec->Call(Kind::kWrite, "Close", pr->m->Close(ino));
    if (written && closed.ok()) pr->files[f].ino = ino;
  }

  sim::Task<void> ReadBack(Recorder* rec, int p, int f) {
    Proc* pr = &procs_[p];
    const File file = pr->files[f];
    if (file.ino == 0) co_return;
    const std::string who = Named("p", p) + "/" + Named("f", f);
    auto d = co_await rec->Call(Kind::kRead, "Lookup", pr->peer->Lookup(pr->dir, Named("f", f)));
    if (d.ok() && d->inode != file.ino) {
      rec->log()->Wrong(who + ": peer lookup returned another inode");
    }
    for (uint64_t off = 0; off < file.size; off += kReadChunk) {
      const uint64_t len = std::min(kReadChunk, file.size - off);
      auto r = co_await rec->Call(Kind::kRead, "Read", pr->peer->Read(file.ino, off, len));
      if (r.ok() && r->view() != pool_.view().substr(file.base + off, len)) {
        rec->log()->Wrong(who + ": bytes read back at offset " + std::to_string(off) +
                          " differ from the last acknowledged write");
      }
    }
  }

  uint64_t seed_;
  bool trace_;
  Buffer pool_;
  std::vector<Proc> procs_;
  std::unique_ptr<Barrier> written_, read_;
};

// --- overwrite_gray --------------------------------------------------------------

/// Random 4 KiB / 128 KiB overwrites beside random reads on pre-laid files,
/// each process on its own files, with health telemetry on. 200 ms into the
/// timed phase the cluster's busiest read disk turns 8x slower.
class OverwriteGray final : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr int kProcsPerClient = 4;
  static constexpr int kFilesPerProc = 32;
  static constexpr uint64_t kFileBytes = 256 * kKiB;
  static constexpr int kSteps = 2000;  // calls per process
  static constexpr uint64_t kPoolBytes = 8 * kMiB;
  static constexpr SimDuration kFlipAt = 200 * kMsec;
  static constexpr uint32_t kSlowFactor = 8;
  static constexpr SimDuration kWindow = 100 * kMsec;  // health window = heartbeat
  static constexpr uint32_t kDataPartitions = 40;

  OverwriteGray(uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void Setup() override {
    harness::ClusterOptions o = PaperCluster(seed_, trace_);
    o.health = true;
    o.heartbeat_interval = kWindow;
    o.health_opts.window_usec = kWindow;
    o.network.bandwidth_mib = 1170;  // storage-bound regime (as the gray-disk bench)
    o.raft.max_batch_entries = 16;
    cluster_ = std::make_unique<harness::Cluster>(o);
    harness::Cluster& c = *cluster_;
    MustOk(c, c.Start(), "start");
    MustOk(c, c.CreateVolume("gray", 10, kDataPartitions), "create volume");
    clients_ = MountClients(c, "gray", kClients);
    pool_ = RandomPool(seed_, kPoolBytes);
    procs_.resize(kClients * kProcsPerClient);
    // Lay the files down through the public write path, all at once.
    sim::Join laid(&c.sched(), static_cast<int>(procs_.size()) * kFilesPerProc);
    int failed = 0;
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      Proc& pr = procs_[p];
      pr.m = clients_[p / kProcsPerClient]->default_mount();
      pr.rng = ProcRng(seed_, p);
      pr.files.resize(kFilesPerProc);
      for (int f = 0; f < kFilesPerProc; f++) {
        const uint64_t base = pr.rng.Uniform(kPoolBytes - kFileBytes);
        pr.files[f].model = pool_.view().substr(base, kFileBytes);
        sim::Spawn(LayDown(p, f, base, &failed, laid.Arrive()));
      }
    }
    if (!harness::RunTaskVoid(c.sched(), laid.Wait()) || failed) {
      std::fprintf(stderr, "cfsbench: setup step 'lay down files' failed\n");
      std::exit(2);
    }
  }

  void Launch(Recorder* rec, int* running) override {
    next_tick_ = cluster_->sched().Now() + kFlipAt;
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      (*running)++;
      sim::Spawn(Run(rec, p, running));
    }
  }

  SimTime next_tick() const override { return next_tick_; }

  void Tick() override {
    harness::Cluster& c = *cluster_;
    next_tick_ = c.sched().Now() + kWindow / 5;  // poll for the verdict
    if (injected_at_ == 0) {
      // The disk serving the most reads so far (lowest node, then lowest
      // disk index wins ties): it holds the extents of the leader replica
      // that the most reads land on.
      uint64_t best = 0;
      for (int n = 0; n < c.num_nodes(); n++) {
        sim::Host* h = c.node_host(n);
        for (int d = 0; d < h->num_disks(); d++) {
          const uint64_t ops = h->disk(d)->reads();
          if (ops > best) {
            best = ops;
            gray_node_ = n;
            gray_disk_ = d;
          }
        }
      }
      injected_at_ = c.sched().Now();
      c.node_host(gray_node_)->disk(gray_disk_)->set_slow_factor(kSlowFactor);
      return;
    }
    const std::string target = Named("n", gray_node_) + Named(".disk", gray_disk_);
    if (const obs::HealthEvent* ev = c.health_scorer()->FirstSuspectEvent(target, injected_at_)) {
      detected_at_ = ev->time;
      next_tick_ = INT64_MAX;
    }
  }

  SimDuration health_detect_us() const override {
    return detected_at_ ? detected_at_ - injected_at_ : 0;
  }

  void Verify(CallLog* log) override {
    // Every file, read whole through its writer's mount, equals its model.
    for (int p = 0; p < static_cast<int>(procs_.size()); p++) {
      for (int f = 0; f < kFilesPerProc; f++) {
        const File& file = procs_[p].files[f];
        auto r = harness::RunTask(cluster_->sched(), procs_[p].m->Read(file.ino, 0, kFileBytes));
        if (!r || !r->ok() || (*r)->view() != file.model) {
          log->Wrong("final content of " + Named("p", p) + "/" + Named("g", f) +
                     " differs from its model");
        }
      }
    }
  }

  std::map<std::string, std::string> ExpectedZeros() const override {
    static constexpr const char* kInPlace =
        "files are pre-laid: every timed write is an in-place overwrite";
    return {
        {"client.window_stalls_per_write", kInPlace},
        {"client.window_self_vus", kInPlace},
        {"datanode.chain_hop_vus", "overwrites replicate through raft, not the append chain"},
    };
  }

 private:
  struct File {
    InodeId ino = 0;
    std::string model;  // bytes of the last acknowledged write at every offset
  };
  struct Proc {
    MountContext* m = nullptr;
    std::vector<File> files;
    Rng rng;
  };

  sim::Task<void> LayDown(int p, int f, uint64_t base, int* failed, std::function<void()> done) {
    Proc* pr = &procs_[p];
    auto created = co_await pr->m->Create(meta::kRootInode, Named("g", p * kFilesPerProc + f),
                                          FileType::kFile);
    Status st = created.status();
    if (created.ok()) {
      pr->files[f].ino = created->id;
      st = co_await pr->m->Write(created->id, 0, pool_.Slice(base, kFileBytes));
      if (st.ok()) st = co_await pr->m->Close(created->id);
    }
    if (!st.ok()) (*failed)++;
    done();
  }

  sim::Task<void> Run(Recorder* rec, int p, int* running) {
    Proc* pr = &procs_[p];
    for (int s = 0; s < kSteps; s++) {
      File* file = &pr->files[pr->rng.Uniform(kFilesPerProc)];
      const bool write = pr->rng.Uniform(2) == 0;
      const uint64_t len = pr->rng.Uniform(20) == 0 ? 128 * kKiB : 4 * kKiB;
      const uint64_t off = pr->rng.Uniform((kFileBytes - len) / (4 * kKiB) + 1) * 4 * kKiB;
      if (write) {
        Buffer data = pool_.Slice(pr->rng.Uniform(kPoolBytes - len), len);
        rec->log()->write_calls++;
        Status st = co_await rec->Call(Kind::kWrite, "Write", pr->m->Write(file->ino, off, data));
        if (st.ok()) {
          rec->log()->user_bytes_written += len;
          file->model.replace(off, len, data.view());
        }
      } else {
        auto r = co_await rec->Call(Kind::kRead, "Read", pr->m->Read(file->ino, off, len));
        if (r.ok() && r->view() != std::string_view(file->model).substr(off, len)) {
          rec->log()->Wrong(Named("p", p) + ": read at offset " + std::to_string(off) +
                            " differs from the last acknowledged write");
        }
      }
    }
    (*running)--;
  }

  uint64_t seed_;
  bool trace_;
  Buffer pool_;
  std::vector<Proc> procs_;
  SimTime next_tick_ = INT64_MAX;
  SimTime injected_at_ = 0;
  SimTime detected_at_ = 0;
  int gray_node_ = 0;
  int gray_disk_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"meta_mix", "file_lifecycle", "overwrite_gray"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool trace) {
  if (name == "meta_mix") return std::make_unique<MetaMix>(seed, trace);
  if (name == "file_lifecycle") return std::make_unique<FileLifecycle>(seed, trace);
  if (name == "overwrite_gray") return std::make_unique<OverwriteGray>(seed, trace);
  return nullptr;
}

}  // namespace cfsbench
