// Container-platform scenario (the paper's motivating workload, §1): one
// volume shared by many containers across machines —
//   * a deployment writes a config file once,
//   * every container reads it (shared read access),
//   * each container appends to its own log (persist-beyond-container),
//   * one container is "rescheduled" (new client) and picks up the data the
//     old one persisted.
#include <cstdio>
#include <vector>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;
using harness::RunTaskVoid;

int main() {
  ClusterOptions options;
  options.num_nodes = 6;
  Cluster cluster(options);
  auto run = [&](auto task) { return RunTask(cluster.sched(), std::move(task)).value(); };
  // Every step and every byte read back is checked: a failure prints a
  // FAILED line and the example exits 1.
  int failures = 0;
  auto check = [&](bool ok, const char* step) {
    if (!ok) {
      std::printf("FAILED: %s\n", step);
      failures++;
    }
  };

  if (!run(cluster.Start()).ok() || !run(cluster.CreateVolume("shared", 3, 10)).ok()) {
    return 1;
  }

  // Four "containers" on different machines mount the same volume.
  const int kContainers = 4;
  std::vector<vfs::FileSystem*> containers;
  std::vector<std::unique_ptr<vfs::FileSystem>> owned;
  for (int i = 0; i < kContainers; i++) {
    client::Client* c = *run(cluster.MountClient("shared"));
    owned.push_back(std::make_unique<vfs::FileSystem>(c->default_mount()));
    containers.push_back(owned.back().get());
  }

  // Deployment writes the shared config once.
  vfs::FileSystem* deployer = containers[0];
  const std::string config = "workers = 8\nregion = \"eu\"\n";
  check(run(deployer->Mkdir("/cfg")).ok(), "mkdir /cfg");
  check(run(deployer->Mkdir("/logs")).ok(), "mkdir /logs");
  vfs::Fd cfg = *run(deployer->Open("/cfg/service.toml", vfs::kCreate | vfs::kWrite));
  check(run(deployer->Write(cfg, config)).ok(), "write /cfg/service.toml");
  check(run(deployer->Close(cfg)).ok(), "close /cfg/service.toml");
  std::printf("deployer wrote /cfg/service.toml\n");

  // Every container reads the config and appends to its own log,
  // concurrently (each runs as its own simulated process). Failed steps
  // are counted into `failures`.
  const std::string log_line = "request handled rc=200\n";
  const int kLogLines = 50;
  bool done = RunTaskVoid(cluster.sched(), [](std::vector<vfs::FileSystem*> cs,
                                              std::string config, std::string log_line,
                                              int lines, int* failures) -> sim::Task<void> {
    auto fail = [failures](const char* step, size_t i) {
      std::printf("FAILED: %s (container %zu)\n", step, i);
      (*failures)++;
    };
    for (size_t i = 0; i < cs.size(); i++) {
      vfs::FileSystem* fs = cs[i];
      auto fd = co_await fs->Open("/cfg/service.toml", vfs::kRead);
      if (!fd.ok()) {
        fail("open /cfg/service.toml", i);
        continue;
      }
      auto text = co_await fs->Read(*fd, 4096);
      if (!(co_await fs->Close(*fd)).ok()) fail("close /cfg/service.toml", i);
      std::printf("container %zu read config (%zu bytes)\n", i, text.ok() ? text->size() : 0);
      if (!text.ok() || *text != config) fail("bytes read back from /cfg/service.toml", i);

      std::string log_path = "/logs/container-" + std::to_string(i) + ".log";
      fd = co_await fs->Open(log_path, vfs::kCreate | vfs::kWrite | vfs::kAppend);
      if (!fd.ok()) {
        fail("open log", i);
        continue;
      }
      for (int line = 0; line < lines; line++) {
        if (!(co_await fs->Write(*fd, log_line)).ok()) fail("append to log", i);
      }
      if (!(co_await fs->Close(*fd)).ok()) fail("close log", i);
    }
  }(containers, config, log_line, kLogLines, &failures));
  if (!done) return 1;

  // "Reschedule": a brand-new container (fresh client) takes over container
  // 2's log — the data survived the container.
  client::Client* fresh = *run(cluster.MountClient("shared"));
  vfs::FileSystem fs_new(fresh->default_mount());
  std::string log;
  for (int line = 0; line < kLogLines; line++) log += log_line;
  auto attr = *run(fs_new.Stat("/logs/container-2.log"));
  std::printf("rescheduled container sees container-2.log: %llu bytes (nlink=%u)\n",
              static_cast<unsigned long long>(attr.size), attr.nlink);
  check(attr.size == log.size(), "size of container-2.log");
  vfs::Fd rd = *run(fs_new.Open("/logs/container-2.log", vfs::kRead));
  check(*run(fs_new.Read(rd, 4096)) == log, "bytes read back from container-2.log");
  check(run(fs_new.Close(rd)).ok(), "close container-2.log");

  auto entries = *run(fs_new.ListDir("/logs"));
  std::printf("/logs has %zu files:\n", entries.size());
  check(entries.size() == kContainers, "listing of /logs");
  for (const auto& e : entries) {
    std::printf("  %-24s %8llu bytes\n", e.name.c_str(),
                static_cast<unsigned long long>(e.attr.size));
    check(e.attr.size == log.size(), "size of a container log");
  }
  if (failures) return 1;
  std::printf("container platform scenario OK\n");
  return 0;
}
