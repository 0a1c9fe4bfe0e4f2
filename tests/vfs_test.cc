// VFS (POSIX facade) tests: path resolution, fd semantics, directories,
// links, rename, stat, and the relaxed-consistency behaviours of §2.7.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "vfs/vfs.h"

namespace cfs::vfs {
namespace {

using harness::Cluster;
using harness::ClusterOptions;
using harness::RunTask;
using sim::Task;

class VfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.num_nodes = 5;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->Start())->ok());
    ASSERT_TRUE(RunTask(cluster_->sched(), cluster_->CreateVolume("vol", 3, 6))->ok());
    auto c = RunTask(cluster_->sched(), cluster_->MountClient("vol"));
    ASSERT_TRUE(c->ok());
    fs_ = std::make_unique<FileSystem>((**c)->default_mount());
  }

  template <typename T>
  T Run(sim::Task<T> t) {
    auto out = RunTask(cluster_->sched(), std::move(t));
    EXPECT_TRUE(out.has_value()) << "task hung";
    return std::move(*out);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<FileSystem> fs_;
};

TEST_F(VfsFixture, RootStat) {
  auto attr = Run(fs_->Stat("/"));
  ASSERT_TRUE(attr.ok()) << attr.status().ToString();
  EXPECT_EQ(attr->ino, meta::kRootInode);
  EXPECT_EQ(attr->type, FileType::kDir);
}

TEST_F(VfsFixture, RelativePathRejected) {
  auto attr = Run(fs_->Stat("not/absolute"));
  EXPECT_EQ(attr.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VfsFixture, MkdirAndNestedCreate) {
  ASSERT_TRUE(Run(fs_->Mkdir("/a")).ok());
  ASSERT_TRUE(Run(fs_->Mkdir("/a/b")).ok());
  ASSERT_TRUE(Run(fs_->Mkdir("/a/b/c")).ok());
  auto fd = Run(fs_->Open("/a/b/c/file.txt", kCreate | kWrite));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  auto attr = Run(fs_->Stat("/a/b/c/file.txt"));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kFile);
  // Dot and dot-dot normalization.
  auto attr2 = Run(fs_->Stat("/a/b/../b/./c/file.txt"));
  ASSERT_TRUE(attr2.ok());
  EXPECT_EQ(attr2->ino, attr->ino);
}

TEST_F(VfsFixture, MkdirInMissingParentFails) {
  EXPECT_TRUE(Run(fs_->Mkdir("/no/such/parent")).IsNotFound());
}

TEST_F(VfsFixture, OpenMissingWithoutCreateFails) {
  auto fd = Run(fs_->Open("/nope", kRead));
  EXPECT_TRUE(fd.status().IsNotFound());
}

TEST_F(VfsFixture, ExclusiveCreateFailsOnExisting) {
  ASSERT_TRUE(Run(fs_->Open("/x", kCreate | kWrite)).ok());
  auto second = Run(fs_->Open("/x", kCreate | kExclusive | kWrite));
  EXPECT_TRUE(second.status().IsAlreadyExists());
}

TEST_F(VfsFixture, WriteReadThroughFd) {
  auto fd = Run(fs_->Open("/data.bin", kCreate | kWrite | kRead));
  ASSERT_TRUE(fd.ok());
  std::string a(64 * kKiB, 'a'), b(32 * kKiB, 'b');
  auto w1 = Run(fs_->Write(*fd, a));
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(*w1, a.size());
  auto w2 = Run(fs_->Write(*fd, b));  // offset advanced
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(Run(fs_->Fsync(*fd)).ok());

  ASSERT_TRUE(Run(fs_->Seek(*fd, 0)).ok());
  auto r = Run(fs_->Read(*fd, a.size() + b.size()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, a + b);
  // Positional read does not disturb the offset.
  auto p = Run(fs_->Pread(*fd, a.size(), b.size()));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, b);
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
}

TEST_F(VfsFixture, WriteOnReadOnlyFdFails) {
  ASSERT_TRUE(Run(fs_->Open("/ro", kCreate | kWrite)).ok());
  auto fd = Run(fs_->Open("/ro", kRead));
  ASSERT_TRUE(fd.ok());
  auto w = Run(fs_->Write(*fd, "nope"));
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(VfsFixture, AppendFlagStartsAtEof) {
  auto fd = Run(fs_->Open("/log", kCreate | kWrite));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd, std::string(10 * kKiB, '1'))).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  auto fd2 = Run(fs_->Open("/log", kWrite | kAppend));
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd2, std::string(5 * kKiB, '2'))).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd2)).ok());
  auto attr = Run(fs_->Stat("/log"));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 15 * kKiB);
}

TEST_F(VfsFixture, TruncateFlagEmptiesFile) {
  auto fd = Run(fs_->Open("/t", kCreate | kWrite));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd, std::string(8 * kKiB, 'x'))).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  auto fd2 = Run(fs_->Open("/t", kWrite | kTruncate));
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(Run(fs_->Close(*fd2)).ok());
  auto attr = Run(fs_->Stat("/t"));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 0u);
}

TEST_F(VfsFixture, ListDirReturnsEntriesWithAttrs) {
  ASSERT_TRUE(Run(fs_->Mkdir("/dir")).ok());
  for (int i = 0; i < 5; i++) {
    auto fd = Run(fs_->Open("/dir/f" + std::to_string(i), kCreate | kWrite));
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(Run(fs_->Write(*fd, std::string(1024, 'z'))).ok());
    ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  }
  auto entries = Run(fs_->ListDir("/dir"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 5u);
  for (const auto& e : *entries) {
    EXPECT_EQ(e.attr.type, FileType::kFile);
    EXPECT_EQ(e.attr.size, 1024u);
  }
}

TEST_F(VfsFixture, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(Run(fs_->Mkdir("/d")).ok());
  ASSERT_TRUE(Run(fs_->Open("/d/f", kCreate | kWrite)).ok());
  EXPECT_EQ(Run(fs_->Rmdir("/d")).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(Run(fs_->Unlink("/d/f")).ok());
  EXPECT_TRUE(Run(fs_->Rmdir("/d")).ok());
  EXPECT_TRUE(Run(fs_->Stat("/d")).status().IsNotFound());
}

TEST_F(VfsFixture, UnlinkDirectoryRejected) {
  ASSERT_TRUE(Run(fs_->Mkdir("/d2")).ok());
  EXPECT_EQ(Run(fs_->Unlink("/d2")).code(), StatusCode::kInvalidArgument);
}

TEST_F(VfsFixture, RenameAcrossDirectories) {
  ASSERT_TRUE(Run(fs_->Mkdir("/src")).ok());
  ASSERT_TRUE(Run(fs_->Mkdir("/dst")).ok());
  auto fd = Run(fs_->Open("/src/file", kCreate | kWrite));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd, "payload")).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  ASSERT_TRUE(Run(fs_->Rename("/src/file", "/dst/moved")).ok());
  EXPECT_TRUE(Run(fs_->Stat("/src/file")).status().IsNotFound());
  auto attr = Run(fs_->Stat("/dst/moved"));
  ASSERT_TRUE(attr.ok());
  auto fd2 = Run(fs_->Open("/dst/moved", kRead));
  ASSERT_TRUE(fd2.ok());
  auto r = Run(fs_->Read(*fd2, 100));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "payload");
}

TEST_F(VfsFixture, HardLinkSharesInode) {
  auto fd = Run(fs_->Open("/orig", kCreate | kWrite));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd, "shared-bytes")).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  ASSERT_TRUE(Run(fs_->HardLink("/orig", "/alias")).ok());
  auto a = Run(fs_->Stat("/orig"));
  auto b = Run(fs_->Stat("/alias"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ino, b->ino);
  EXPECT_EQ(b->nlink, 2u);
  ASSERT_TRUE(Run(fs_->Unlink("/orig")).ok());
  auto fd2 = Run(fs_->Open("/alias", kRead));
  ASSERT_TRUE(fd2.ok());
  auto r = Run(fs_->Read(*fd2, 100));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "shared-bytes");
}

TEST_F(VfsFixture, HardLinkToDirectoryRejected) {
  ASSERT_TRUE(Run(fs_->Mkdir("/hd")).ok());
  EXPECT_EQ(Run(fs_->HardLink("/hd", "/hd2")).code(), StatusCode::kInvalidArgument);
}

TEST_F(VfsFixture, SymlinkResolution) {
  ASSERT_TRUE(Run(fs_->Mkdir("/real")).ok());
  auto fd = Run(fs_->Open("/real/target", kCreate | kWrite));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd, "via-symlink")).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd)).ok());
  ASSERT_TRUE(Run(fs_->Symlink("/real", "/link")).ok());
  // Path traversal through the symlinked directory.
  auto fd2 = Run(fs_->Open("/link/target", kRead));
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  auto r = Run(fs_->Read(*fd2, 100));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "via-symlink");
  auto target = Run(fs_->ReadLink("/link"));
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/real");
}

TEST_F(VfsFixture, SymlinkLoopDetected) {
  ASSERT_TRUE(Run(fs_->Symlink("/l2", "/l1")).ok());
  ASSERT_TRUE(Run(fs_->Symlink("/l1", "/l2")).ok());
  auto r = Run(fs_->Stat("/l1"));
  EXPECT_FALSE(r.ok());
}

TEST_F(VfsFixture, ExistsHelper) {
  EXPECT_FALSE(*Run(fs_->Exists("/ghost")));
  ASSERT_TRUE(Run(fs_->Open("/ghost", kCreate | kWrite)).ok());
  EXPECT_TRUE(*Run(fs_->Exists("/ghost")));
}

TEST_F(VfsFixture, TwoFdsSameFileShareData) {
  auto fd1 = Run(fs_->Open("/two", kCreate | kWrite | kRead));
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(Run(fs_->Write(*fd1, std::string(4 * kKiB, 'Q'))).ok());
  ASSERT_TRUE(Run(fs_->Fsync(*fd1)).ok());
  auto fd2 = Run(fs_->Open("/two", kRead));
  ASSERT_TRUE(fd2.ok());
  auto r = Run(fs_->Read(*fd2, 4 * kKiB));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4 * kKiB);
  ASSERT_TRUE(Run(fs_->Close(*fd1)).ok());
  ASSERT_TRUE(Run(fs_->Close(*fd2)).ok());
  EXPECT_EQ(fs_->open_fds(), 0u);
}

}  // namespace
}  // namespace cfs::vfs
