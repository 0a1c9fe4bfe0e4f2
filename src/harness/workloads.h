// Benchmark workload generators: mdtest-style metadata tests (Table 2) and
// fio-style data-path tests, runnable against both CFS and the Ceph baseline
// through a common operation interface. Closed-loop clients, fixed op count
// per process; IOPS = total ops / elapsed simulated time.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ceph/ceph.h"
#include "client/client.h"
#include "common/buffer.h"
#include "harness/cluster.h"
#include "sim/task.h"

namespace cfs::bench {

/// Uniform metadata interface for the 7 mdtest operations.
class MetaOps {
 public:
  virtual ~MetaOps() = default;
  virtual sim::Task<Result<uint64_t>> Mkdir(uint64_t parent, std::string name) = 0;
  virtual sim::Task<Result<uint64_t>> Create(uint64_t parent, std::string name) = 0;
  /// DirStat: list the directory and stat every entry.
  virtual sim::Task<Result<size_t>> StatDir(uint64_t dir) = 0;
  virtual sim::Task<Status> Remove(uint64_t parent, std::string name) = 0;
  virtual sim::Task<Status> Rmdir(uint64_t parent, std::string name) = 0;
  virtual uint64_t Root() const = 0;
};

/// Uniform data-path interface for the fio tests.
class DataOps {
 public:
  virtual ~DataOps() = default;
  /// Make `bytes` of file content addressable without simulating the fio
  /// laydown phase (excluded from measurement, as in the paper).
  virtual sim::Task<Result<uint64_t>> PrepareFile(uint64_t bytes) = 0;
  virtual sim::Task<Status> Write(uint64_t file, uint64_t offset, uint64_t len,
                                  bool overwrite) = 0;
  virtual sim::Task<Status> Read(uint64_t file, uint64_t offset, uint64_t len) = 0;
  /// Associate a file (created through MetaOps) with its parent directory —
  /// needed by backends whose size updates route by directory authority.
  virtual void BindParent(uint64_t file, uint64_t dir) {
    (void)file;
    (void)dir;
  }
};

// --- CFS adapters ------------------------------------------------------------

class CfsMetaOps : public MetaOps {
 public:
  /// Operates on ONE mount.
  explicit CfsMetaOps(client::MountContext* m) : m_(m) {}
  sim::Task<Result<uint64_t>> Mkdir(uint64_t parent, std::string name) override;
  sim::Task<Result<uint64_t>> Create(uint64_t parent, std::string name) override;
  sim::Task<Result<size_t>> StatDir(uint64_t dir) override;
  sim::Task<Status> Remove(uint64_t parent, std::string name) override;
  sim::Task<Status> Rmdir(uint64_t parent, std::string name) override;
  uint64_t Root() const override { return meta::kRootInode; }

 private:
  client::MountContext* m_;
};

class CfsDataOps : public DataOps {
 public:
  CfsDataOps(harness::Cluster* cluster, client::MountContext* m, uint64_t small_threshold)
      : cluster_(cluster), m_(m), small_threshold_(small_threshold) {}
  sim::Task<Result<uint64_t>> PrepareFile(uint64_t bytes) override;
  sim::Task<Status> Write(uint64_t file, uint64_t offset, uint64_t len,
                          bool overwrite) override;
  sim::Task<Status> Read(uint64_t file, uint64_t offset, uint64_t len) override;

 private:
  /// Fill-pattern payload of at least `len` bytes, shared across every write
  /// this adapter issues: the client's zero-copy path slices it per packet,
  /// so no per-op payload is materialized (and the Buffer CRC memo hits on
  /// every repeated (offset, len) slice).
  Buffer FillPayload(uint64_t len);

  harness::Cluster* cluster_;
  client::MountContext* m_;
  uint64_t small_threshold_;
  uint64_t prepared_ = 0;
  Buffer fill_;
};

// --- Ceph adapters -------------------------------------------------------------

class CephMetaOps : public MetaOps {
 public:
  explicit CephMetaOps(ceph::CephClient* c) : c_(c) {}
  sim::Task<Result<uint64_t>> Mkdir(uint64_t parent, std::string name) override;
  sim::Task<Result<uint64_t>> Create(uint64_t parent, std::string name) override;
  sim::Task<Result<size_t>> StatDir(uint64_t dir) override;
  sim::Task<Status> Remove(uint64_t parent, std::string name) override;
  sim::Task<Status> Rmdir(uint64_t parent, std::string name) override;
  uint64_t Root() const override { return ceph::kCephRoot; }

 private:
  ceph::CephClient* c_;
};

class CephDataOps : public DataOps {
 public:
  explicit CephDataOps(ceph::CephClient* c) : c_(c) {}
  sim::Task<Result<uint64_t>> PrepareFile(uint64_t bytes) override;
  sim::Task<Status> Write(uint64_t file, uint64_t offset, uint64_t len,
                          bool overwrite) override;
  sim::Task<Status> Read(uint64_t file, uint64_t offset, uint64_t len) override;

 private:
  ceph::CephClient* c_;
  /// Per-client working directory ("each client in Ceph operates different
  /// file directories and each directory is bonded to a specific MDS",
  /// §4.3) — size updates then spread across MDSs instead of hammering the
  /// root's authority.
  uint64_t dir_ = 0;
  bool creating_dir_ = false;
  /// file -> parent dir (SetSize must target the file's own authority).
  std::map<uint64_t, uint64_t> file_dir_;

 public:
  void BindParent(uint64_t file, uint64_t dir) override { file_dir_[file] = dir; }
};

// --- mdtest runner ---------------------------------------------------------------

enum class MdTest {
  kDirCreation,
  kDirStat,
  kDirRemoval,
  kFileCreation,
  kFileRemoval,
  kTreeCreation,
  kTreeRemoval,
};

const char* MdTestName(MdTest t);

struct MdtestParams {
  /// Namespaces the working directories so sequential phases on one cluster
  /// do not collide (mdtest runs its phases back to back on shared state).
  std::string phase_tag;
  /// Items per process for the flat tests.
  int items_per_proc = 64;
  /// Files visible to each DirStat scan.
  int stat_dir_files = 16;
  int stat_repetitions = 8;  // scans per process
  /// mdtest -N rank shift: process i stats the directory of process
  /// (i + stat_shift) %% procs, so stats cross client caches when the shift
  /// crosses a client boundary.
  int stat_shift = 0;
  /// Tree shape for TreeCreation/TreeRemoval (non-leaf directories).
  int tree_depth = 3;
  int tree_branch = 8;
};

struct BenchResult {
  uint64_t ops = 0;
  SimDuration elapsed = 0;
  /// Per-op completion latency of the measured phase (virtual time). One
  /// sample per counted op; cells of one sweep merge via MergeFrom so a
  /// bench can print one latency_quantiles line per pattern.
  obs::Histogram latency;
  double Iops() const {
    return elapsed > 0 ? static_cast<double>(ops) * kSec / static_cast<double>(elapsed) : 0;
  }
};

/// Run one mdtest phase: `procs[i]` is the per-process MetaOps handle
/// (processes of one client share a handle; distinct clients get their own).
/// `proc_tags` must be unique per process (used to namespace paths).
BenchResult RunMdtest(sim::Scheduler* sched, MdTest test,
                      const std::vector<MetaOps*>& procs, const MdtestParams& params);

// --- fio runner -------------------------------------------------------------------

enum class FioPattern { kSeqWrite, kSeqRead, kRandWrite, kRandRead };

const char* FioPatternName(FioPattern p);

struct FioParams {
  uint64_t file_bytes = 1 * kGiB;  // per-process file (paper: 40 GB, scaled)
  uint64_t seq_block = 128 * kKiB;
  uint64_t rand_block = 4 * kKiB;
  int ops_per_proc = 200;
};

BenchResult RunFio(sim::Scheduler* sched, FioPattern pattern,
                   const std::vector<DataOps*>& procs, const FioParams& params);

/// Small-file test (Fig. 10): write/read/remove files of a given size.
enum class SmallFileTest { kWrite, kRead, kRemoval };
BenchResult RunSmallFiles(sim::Scheduler* sched, SmallFileTest test, uint64_t file_size,
                          const std::vector<MetaOps*>& meta,
                          const std::vector<DataOps*>& data, int files_per_proc);

}  // namespace cfs::bench
