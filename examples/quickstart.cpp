// Quickstart: bring up a CFS cluster, mount a volume, and use the
// POSIX-like API — the 60-second tour of the public surface.
//
//   cluster -> volume -> client mount -> FileSystem (mkdir/open/write/read/list)
//
// Everything runs inside the deterministic simulation substrate; `Run(...)`
// drives the virtual clock until the operation completes.
#include <cstdio>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;

int main() {
  // 1. A cluster: 3 resource-manager replicas + 5 storage machines, each
  //    running a meta node (metadata in memory) and a data node (extent
  //    stores on 16 simulated SSDs).
  ClusterOptions options;
  options.num_nodes = 5;
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

  if (!run(cluster.Start()).ok()) {
    std::printf("cluster failed to start\n");
    return 1;
  }
  std::printf("cluster up: %d storage nodes, %d masters\n", cluster.num_nodes(), 3);

  // 2. A volume: the file-system instance containers mount (§2). 3 meta
  //    partitions shard the namespace; 8 data partitions hold extents.
  if (!run(cluster.CreateVolume("quickstart", 3, 8)).ok()) {
    std::printf("volume creation failed\n");
    return 1;
  }
  std::printf("volume 'quickstart' created\n");

  // 3. A client mounts the volume; the FUSE-like POSIX facade sits on the
  //    mount.
  client::Client* client = *run(cluster.MountClient("quickstart"));
  vfs::FileSystem fs(client->default_mount());

  // 4. Files and directories.
  check(run(fs.Mkdir("/app")).ok(), "mkdir /app");
  check(run(fs.Mkdir("/app/logs")).ok(), "mkdir /app/logs");

  vfs::Fd fd = *run(fs.Open("/app/logs/boot.log", vfs::kCreate | vfs::kWrite));
  std::string line = "service started; cfs mounted rw\n";
  check(run(fs.Write(fd, line)).ok(), "write boot.log");
  check(run(fs.Write(fd, line)).ok(), "write boot.log");
  check(run(fs.Close(fd)).ok(), "close boot.log");
  const std::string expected = line + line;

  vfs::Fd rd = *run(fs.Open("/app/logs/boot.log", vfs::kRead));
  std::string content = *run(fs.Read(rd, 4096));
  check(run(fs.Close(rd)).ok(), "close boot.log");
  std::printf("read back %zu bytes:\n%s", content.size(), content.c_str());
  check(content == expected, "bytes read back from boot.log");

  auto entries = *run(fs.ListDir("/app/logs"));
  check(entries.size() == 1 && entries[0].name == "boot.log" &&
            entries[0].attr.size == expected.size(),
        "listing of /app/logs");
  for (const auto& e : entries) {
    std::printf("  /app/logs/%-12s %6llu bytes  inode %llu\n", e.name.c_str(),
                static_cast<unsigned long long>(e.attr.size),
                static_cast<unsigned long long>(e.attr.ino));
  }

  auto attr = *run(fs.Stat("/app/logs/boot.log"));
  std::printf("stat: size=%llu nlink=%u\n", static_cast<unsigned long long>(attr.size),
              attr.nlink);
  check(attr.size == expected.size() && attr.nlink == 1, "stat boot.log");

  if (failures) return 1;
  std::printf("quickstart OK (simulated time: %lld ms)\n",
              static_cast<long long>(cluster.sched().Now() / 1000));
  return 0;
}
