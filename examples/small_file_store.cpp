// Small-file (product-image) store — the §4.4 workload: images are written
// once, read many times, never modified, occasionally deleted.
//
// Demonstrates the small-file machinery end to end:
//   * files <= 128 KB aggregate into shared tiny extents (§2.2.3),
//   * the meta node records each file's (extent, physical offset),
//   * deletion punches holes instead of running a garbage collector, and
//     fully-punched extents disappear;
// and prints the extent/disk accounting that proves it.
#include <cstdio>
#include <vector>

#include "harness/cluster.h"
#include "vfs/vfs.h"

using namespace cfs;
using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;

namespace {

struct StoreStats {
  uint64_t extents = 0;
  uint64_t physical = 0;
  uint64_t punched = 0;
};

StoreStats Collect(Cluster& cluster) {
  StoreStats s;
  for (int i = 0; i < cluster.num_nodes(); i++) {
    for (const auto& rep : cluster.data_node(i)->Reports()) {
      s.extents += rep.extents;
      s.physical += rep.used_bytes;
    }
    sim::Host* h = cluster.node_host(i);
    for (int d = 0; d < h->num_disks(); d++) s.punched += h->disk(d)->punched_bytes();
  }
  return s;
}

}  // namespace

int main() {
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

  if (!run(cluster.Start()).ok() || !run(cluster.CreateVolume("images", 3, 8)).ok()) {
    return 1;
  }
  client::Client* client = *run(cluster.MountClient("images"));
  vfs::FileSystem fs(client->default_mount());
  check(run(fs.Mkdir("/products")).ok(), "mkdir /products");

  // Upload a catalog of small images (4-96 KB).
  const int kImages = 60;
  Rng rng(2026);
  std::vector<std::string> paths;
  std::vector<std::string> images;
  uint64_t uploaded_bytes = 0;
  for (int i = 0; i < kImages; i++) {
    std::string path = "/products/sku-" + std::to_string(1000 + i) + ".jpg";
    uint64_t size = (4 + rng.Uniform(93)) * kKiB;
    std::string payload(size, static_cast<char>('A' + i % 26));
    vfs::Fd fd = *run(fs.Open(path, vfs::kCreate | vfs::kWrite));
    check(run(fs.Write(fd, payload)).ok(), "upload write");
    check(run(fs.Close(fd)).ok(), "upload close");
    paths.push_back(path);
    images.push_back(std::move(payload));
    uploaded_bytes += size;
  }
  StoreStats after_upload = Collect(cluster);
  std::printf("uploaded %d images (%llu KiB logical)\n", kImages,
              static_cast<unsigned long long>(uploaded_bytes / kKiB));
  std::printf("  extents holding them: %llu (aggregation: ~%.1f files/extent)\n",
              static_cast<unsigned long long>(after_upload.extents),
              after_upload.extents ? 3.0 * kImages / after_upload.extents : 0);

  // Serve a read burst (the long-tail read path: all metadata in memory).
  uint64_t served = 0;
  for (int round = 0; round < 3; round++) {
    for (size_t i = 0; i < paths.size(); i++) {
      vfs::Fd fd = *run(fs.Open(paths[i], vfs::kRead));
      auto bytes = *run(fs.Read(fd, 128 * kKiB));
      served += bytes.size();
      check(bytes == images[i], "bytes read back from an image");
      check(run(fs.Close(fd)).ok(), "close after read");
    }
  }
  std::printf("served %llu KiB across %d reads\n",
              static_cast<unsigned long long>(served / kKiB), 3 * kImages);

  // Retire a third of the catalog: asynchronous delete -> punch hole.
  int removed = 0;
  for (size_t i = 0; i < paths.size(); i += 3) {
    check(run(fs.Unlink(paths[i])).ok(), "unlink an image");
    removed++;
  }
  std::printf("deleted %d images; waiting for the async purge (§2.7.3)...\n", removed);
  cluster.sched().RunFor(5 * kSec);

  StoreStats after_delete = Collect(cluster);
  std::printf("  physical bytes: %llu KiB -> %llu KiB\n",
              static_cast<unsigned long long>(after_upload.physical / kKiB),
              static_cast<unsigned long long>(after_delete.physical / kKiB));
  std::printf("  punched (hole) bytes on disk: %llu KiB — no GC pass needed (§2.2.3)\n",
              static_cast<unsigned long long>(after_delete.punched / kKiB));

  // The survivors still read back fine around the holes.
  int intact = 0, survivors = 0;
  for (size_t i = 0; i < paths.size(); i++) {
    if (i % 3 == 0) continue;  // deleted above
    survivors++;
    vfs::Fd fd = *run(fs.Open(paths[i], vfs::kRead));
    if (*run(fs.Read(fd, 128 * kKiB)) == images[i]) intact++;
    check(run(fs.Close(fd)).ok(), "close after read");
  }
  std::printf("post-delete reads: %d of %d survivors intact\n", intact, survivors);
  check(intact == survivors, "bytes read back after the deletes");
  if (failures) return 1;
  std::printf("small-file store scenario OK\n");
  return 0;
}
