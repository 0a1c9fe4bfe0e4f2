// Extent store tests: large-file extents, small-file aggregation, punch
// holes, CRC integrity (including the incremental overwrite/punch CRC),
// overwrite semantics, reads racing inserts, accounting mode.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/network.h"
#include "storage/extent_store.h"

namespace cfs::storage {
namespace {

using sim::Spawn;
using sim::Task;

/// Every byte of a tracking-mode extent, gathered from its pieces.
std::string Contents(const Extent& e) { return e.data.Read(0, e.size).ToString(); }

class ExtentFixture : public ::testing::Test {
 protected:
  ExtentFixture() : net_(&sched_) {
    host_ = net_.AddHost();
    ExtentStoreOptions opts;
    opts.extent_size_limit = 1 * kMiB;
    opts.small_file_threshold = 128 * kKiB;
    store_ = std::make_unique<ExtentStore>(host_->disk(0), opts);
  }

  template <typename F>
  void Run(F f) {
    Spawn(f());
    sched_.Run();
  }

  sim::Scheduler sched_;
  sim::Network net_;
  sim::Host* host_;
  std::unique_ptr<ExtentStore> store_;
};

TEST_F(ExtentFixture, AppendAndReadBack) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    EXPECT_TRUE((co_await store_->Append(id, 0, "hello ")).ok());
    EXPECT_TRUE((co_await store_->Append(id, 6, "world")).ok());
    auto r = co_await store_->Read(id, 0, 11);
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(*r, "hello world");
    EXPECT_EQ(store_->ExtentSize(id), 11u);
  });
}

TEST_F(ExtentFixture, AppendMustBeAtEnd) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "abc");
    Status st = co_await store_->Append(id, 1, "x");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    st = co_await store_->Append(id, 10, "x");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, ExtentSizeLimitEnforced) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    std::string big(512 * kKiB, 'a');
    EXPECT_TRUE((co_await store_->Append(id, 0, big)).ok());
    EXPECT_TRUE((co_await store_->Append(id, big.size(), big)).ok());
    Status st = co_await store_->Append(id, 2 * big.size(), "x");
    EXPECT_TRUE(st.IsNoSpace());
  });
}

TEST_F(ExtentFixture, OverwriteInPlace) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "aaaaaaaaaa");
    EXPECT_TRUE(store_->OverwriteSync(id, 3, Buffer::CopyOf("XYZ")).ok());
    auto r = co_await store_->Read(id, 0, 10);
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(*r, "aaaXYZaaaa");
    // Size unchanged: overwrite never extends (§2.7.2, offsets fixed).
    EXPECT_EQ(store_->ExtentSize(id), 10u);
  });
}

TEST_F(ExtentFixture, OverwriteBeyondEndRejected) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "abc");
    Status st = store_->OverwriteSync(id, 2, Buffer::CopyOf("toolong"));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, CrcCaughtAfterOverwrite) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "0123456789");
    EXPECT_TRUE(store_->OverwriteSync(id, 0, Buffer::CopyOf("9876543210")).ok());
    EXPECT_EQ(store_->Find(id)->crc, Crc32c("9876543210"));
    // Whole-extent read verifies the incrementally updated CRC.
    auto r = co_await store_->Read(id, 0, 10);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((co_await store_->VerifyExtent(id)).ok());
  });
}

TEST_F(ExtentFixture, SmallFilesAggregateIntoOneExtent) {
  Run([&]() -> Task<void> {
    std::string f1(4 * kKiB, 'a'), f2(8 * kKiB, 'b'), f3(100, 'c');
    auto r1 = co_await store_->WriteSmall(f1);
    auto r2 = co_await store_->WriteSmall(f2);
    auto r3 = co_await store_->WriteSmall(f3);
    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    EXPECT_TRUE(r3.ok());
    if (!(r1.ok() && r2.ok() && r3.ok())) co_return;
    // All in the same tiny extent, at consecutive physical offsets.
    EXPECT_EQ(r1->first, r2->first);
    EXPECT_EQ(r2->first, r3->first);
    EXPECT_EQ(r1->second, 0u);
    EXPECT_EQ(r2->second, f1.size());
    EXPECT_EQ(r3->second, f1.size() + f2.size());
    // Contents readable at the recorded offsets.
    auto read = co_await store_->Read(r2->first, r2->second, f2.size());
    EXPECT_TRUE(read.ok());
    if (read.ok()) EXPECT_EQ(*read, f2);
  });
}

TEST_F(ExtentFixture, TooLargeForSmallPathRejected) {
  Run([&]() -> Task<void> {
    std::string big(256 * kKiB, 'x');
    auto r = co_await store_->WriteSmall(big);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, PunchHoleFreesSpaceAndBlocksReads) {
  Run([&]() -> Task<void> {
    std::string f1(16 * kKiB, 'a'), f2(16 * kKiB, 'b');
    auto r1 = co_await store_->WriteSmall(f1);
    auto r2 = co_await store_->WriteSmall(f2);
    uint64_t before = store_->physical_bytes();
    EXPECT_TRUE((co_await store_->PunchHole(r1->first, r1->second, f1.size())).ok());
    EXPECT_EQ(store_->physical_bytes(), before - f1.size());
    // Reading the punched file fails; the neighbour is intact.
    auto bad = co_await store_->Read(r1->first, r1->second, f1.size());
    EXPECT_FALSE(bad.ok());
    auto good = co_await store_->Read(r2->first, r2->second, f2.size());
    EXPECT_TRUE(good.ok());
    if (good.ok()) EXPECT_EQ(*good, f2);
  });
}

TEST_F(ExtentFixture, DoublePunchRejected) {
  Run([&]() -> Task<void> {
    auto r = co_await store_->WriteSmall(std::string(1024, 'x'));
    EXPECT_TRUE((co_await store_->PunchHole(r->first, r->second, 1024)).ok());
    // A second punch of the same (now gone or punched) range fails cleanly.
    Status st = co_await store_->PunchHole(r->first, r->second, 1024);
    EXPECT_FALSE(st.ok());
  });
}

TEST_F(ExtentFixture, FullyPunchedTinyExtentIsRemoved) {
  Run([&]() -> Task<void> {
    auto r1 = co_await store_->WriteSmall(std::string(512, 'a'));
    auto r2 = co_await store_->WriteSmall(std::string(512, 'b'));
    size_t extents_before = store_->num_extents();
    (void)co_await store_->PunchHole(r1->first, r1->second, 512);
    EXPECT_EQ(store_->num_extents(), extents_before);  // half punched: stays
    (void)co_await store_->PunchHole(r2->first, r2->second, 512);
    EXPECT_EQ(store_->num_extents(), extents_before - 1);  // all punched: gone
  });
}

TEST_F(ExtentFixture, DeleteLargeExtentDirectly) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, std::string(64 * kKiB, 'z'));
    uint64_t before = store_->physical_bytes();
    EXPECT_TRUE((co_await store_->DeleteExtent(id)).ok());
    EXPECT_EQ(store_->physical_bytes(), before - 64 * kKiB);
    EXPECT_FALSE(store_->Has(id));
  });
}

TEST_F(ExtentFixture, DeleteTinyExtentRejected) {
  Run([&]() -> Task<void> {
    auto r = co_await store_->WriteSmall("tiny");
    Status st = co_await store_->DeleteExtent(r->first);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST_F(ExtentFixture, NewTinyExtentWhenActiveFills) {
  Run([&]() -> Task<void> {
    // 1 MiB limit; 128 KiB files fill one tiny extent after 8 writes.
    std::string f(128 * kKiB, 'q');
    ExtentId first = 0;
    for (int i = 0; i < 9; i++) {
      auto r = co_await store_->WriteSmall(f);
      EXPECT_TRUE(r.ok());
      if (i == 0) first = r->first;
      if (i == 8) EXPECT_NE(r->first, first);  // rolled over to a new extent
    }
  });
}

TEST_F(ExtentFixture, AccountingModeTracksSizesWithoutContents) {
  ExtentStoreOptions opts;
  opts.track_contents = false;
  ExtentStore store(host_->disk(1), opts);
  Run([&]() -> Task<void> {
    ExtentId id = store.CreateExtent();
    (void)co_await store.Append(id, 0, std::string(1 * kMiB, 'a'));
    EXPECT_EQ(store.ExtentSize(id), 1 * kMiB);
    EXPECT_EQ(store.Find(id)->data.size(), 0u);  // no bytes materialized
    auto r = co_await store.Read(id, 0, 1024);
    EXPECT_TRUE(r.ok());
    if (r.ok()) EXPECT_EQ(r->size(), 1024u);
  });
  EXPECT_EQ(store.logical_bytes(), 1 * kMiB);
}

TEST_F(ExtentFixture, RebuildCrcCacheAfterRestart) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "data-to-check");
    EXPECT_TRUE((co_await store_->RebuildCrcCache()).ok());
    EXPECT_TRUE((co_await store_->VerifyExtent(id)).ok());
  });
}

TEST_F(ExtentFixture, ReadSurvivesInsertsWhileDiskReadPending) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "stable bytes");
    Result<Buffer> got = Status::Unavailable("read never finished");
    Spawn([](ExtentStore* store, ExtentId id, Result<Buffer>* out) -> Task<void> {
      *out = co_await store->Read(id, 0, 12);
    }(store_.get(), id, &got));
    // The read is parked on the disk. Growing the directory reallocates the
    // flat map under it, moving the extent the read started from.
    for (int i = 0; i < 64; i++) store_->CreateExtent();
    co_await sim::SleepFor(sched_, 1 * kSec);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) EXPECT_EQ(*got, "stable bytes");
  });
}

TEST_F(ExtentFixture, ReadOfExtentDeletedWhileDiskReadPendingIsNotFound) {
  Run([&]() -> Task<void> {
    ExtentId id = store_->CreateExtent();
    (void)co_await store_->Append(id, 0, "doomed");
    Result<Buffer> got = Status::Unavailable("read never finished");
    Spawn([](ExtentStore* store, ExtentId id, Result<Buffer>* out) -> Task<void> {
      *out = co_await store->Read(id, 0, 6);
    }(store_.get(), id, &got));
    EXPECT_TRUE(store_->DeleteExtentSync(id).ok());
    co_await sim::SleepFor(sched_, 1 * kSec);
    EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
  });
}

TEST_F(ExtentFixture, PunchedTinyExtentKeepsExactCrc) {
  Run([&]() -> Task<void> {
    auto r1 = co_await store_->WriteSmall(std::string(3000, 'a'));
    auto r2 = co_await store_->WriteSmall(std::string(5000, 'b'));
    auto r3 = co_await store_->WriteSmall(std::string(700, 'c'));
    EXPECT_TRUE((co_await store_->PunchHole(r2->first, r2->second, 5000)).ok());
    EXPECT_TRUE(store_->PunchHoleSync(r1->first, r1->second, 1000).ok());
    const Extent* e = store_->Find(r1->first);
    EXPECT_EQ(e->crc, Crc32c(Contents(*e)));
    // Punched extents are verified like any other: VerifyExtent and
    // CheckInvariants both recompute the CRC over the zeroed bytes.
    EXPECT_TRUE((co_await store_->VerifyExtent(r1->first)).ok());
    store_->MutableExtentForTest(r3->first)->crc ^= 1;
    EXPECT_TRUE((co_await store_->VerifyExtent(r3->first)).IsCorruption());
    InvariantReport report;
    store_->CheckInvariants(&report);
    EXPECT_NE(report.ToString().find("cached CRC disagrees"), std::string::npos)
        << report.ToString();
  });
}

TEST_F(ExtentFixture, RandomOverwritesAndPunchesKeepCrcExact) {
  Rng rng(20190701);
  Run([&]() -> Task<void> {
    for (int round = 0; round < 48; round++) {
      const ExtentId id = 100 + round;
      const bool tiny = round % 2 == 1;
      uint64_t size;
      switch (round % 4) {
        case 0: size = rng.Range(1, 16); break;
        case 1: size = rng.Range(17, 4 * kKiB); break;
        default: size = rng.Range(4 * kKiB, 192 * kKiB); break;
      }
      EXPECT_TRUE(store_->ImportExtent(id, size, tiny).ok());
      std::string model(size, '\0');
      for (int step = 0; step < 24; step++) {
        const Extent* e = store_->Find(id);
        if (e == nullptr) break;  // fully punched and removed
        uint64_t off = 0, len = size;  // whole extent
        switch (rng.Uniform(4)) {
          case 0:
            break;
          case 1:  // up to the end: zero-length tail
            len = rng.Range(0, size);
            off = size - len;
            break;
          default:
            off = rng.Uniform(size);
            len = rng.Range(0, size - off);
            break;
        }
        bool punch = tiny && rng.Chance(0.3) && len > 0;
        Status st;
        std::string y(len, '\0');
        if (punch && step % 2 == 0) {
          st = co_await store_->PunchHole(id, off, len);
        } else if (punch) {
          st = store_->PunchHoleSync(id, off, len);
        } else {
          for (char& c : y) c = static_cast<char>(rng.Next());
          st = store_->OverwriteSync(id, off, Buffer::CopyOf(y));
        }
        // Ranges that overlap an earlier hole are rejected untouched.
        EXPECT_TRUE(st.ok() || st.code() == StatusCode::kInvalidArgument) << st.ToString();
        if (st.ok()) model.replace(off, len, y);
        e = store_->Find(id);
        if (e == nullptr) break;
        EXPECT_EQ(Contents(*e), model) << "round " << round << " step " << step;
        EXPECT_EQ(e->crc, Crc32c(model)) << "round " << round << " step " << step;
      }
    }
    InvariantReport report;
    store_->CheckInvariants(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

// Three chain replicas place the same packets: each keeps the writer's bytes
// by reference, and each packet is checksummed once for all three.
TEST_F(ExtentFixture, ReplicasKeepTheWritersBytes) {
  ExtentStore r2(host_->disk(0)), r3(host_->disk(0));
  std::string bytes(12 * kKiB, '\0');
  for (size_t i = 0; i < bytes.size(); i++) bytes[i] = static_cast<char>('a' + i % 26);
  const Buffer payload = Buffer::FromString(std::move(bytes));
  // Packets of at least 4 KiB each: the piece bound keeps them apart.
  const Buffer a = payload.Slice(0, 8 * kKiB), b = payload.Slice(8 * kKiB, 4 * kKiB);
  Run([&]() -> Task<void> {
    for (ExtentStore* s : {store_.get(), &r2, &r3}) {
      EXPECT_TRUE(s->CreateExtentWithId(5, false).ok());
      EXPECT_TRUE((co_await s->PlaceAt(5, 0, a)).ok());
      EXPECT_TRUE((co_await s->PlaceAt(5, a.size(), b)).ok());
      auto inside = co_await s->Read(5, 2, 8);
      EXPECT_TRUE(inside.ok());
      if (inside.ok()) {
        EXPECT_EQ(inside->data(), payload.data() + 2);  // no copy
      }
      auto across = co_await s->Read(5, a.size() - 3, 6);
      EXPECT_TRUE(across.ok());
      if (across.ok()) {
        EXPECT_EQ(*across, payload.view().substr(a.size() - 3, 6));
      }
      EXPECT_TRUE((co_await s->VerifyExtent(5)).ok());
    }
  });
  EXPECT_EQ(payload.CrcMemoSize(), 2u);
  EXPECT_EQ(store_->Find(5)->crc, Crc32c(payload.view()));
}

// Writes of a byte each, appended or overwritten anywhere, never let the
// piece count outgrow the extent's bytes; contents and CRC stay exact
// through every flatten.
TEST_F(ExtentFixture, PieceCountStaysBoundedByBytes) {
  Rng rng(4096);
  Run([&]() -> Task<void> {
    const ExtentId id = 9;
    EXPECT_TRUE(store_->ImportExtent(id, 40 * kKiB, false).ok());
    std::string model(40 * kKiB, '\0');
    for (int step = 0; step < 4000; step++) {
      const char c = static_cast<char>(rng.Next());
      if (rng.Chance(0.5)) {
        EXPECT_TRUE((co_await store_->Append(id, model.size(), std::string_view(&c, 1))).ok());
        model.push_back(c);
      } else {
        const uint64_t off = rng.Uniform(model.size());
        EXPECT_TRUE(store_->OverwriteSync(id, off, Buffer::CopyOf({&c, 1})).ok());
        model[off] = c;
      }
      const Extent* e = store_->Find(id);
      EXPECT_LE(e->data.num_pieces(), 1 + e->size / Rope::kBytesPerPiece) << "step " << step;
    }
    const Extent* e = store_->Find(id);
    EXPECT_EQ(Contents(*e), model);
    EXPECT_EQ(e->crc, Crc32c(model));
    EXPECT_TRUE((co_await store_->VerifyExtent(id)).ok());
    InvariantReport report;
    store_->CheckInvariants(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

// Shift(v, t) = Crc32cConcat(v, 0, t) is the operator SpliceInPlace applies
// to a CRC difference followed by t bytes: it must equal advancing the CRC
// register over t zero bytes. Crc32cZeros(t), which punches and laid-down
// extents use, must equal the brute-force CRC of t zero bytes.
TEST(IncrementalCrc, ShiftMatchesZeroAppend) {
  Rng rng(42);
  const size_t lens[] = {0, 1, 2, 7, 8, 9, 255, 1023, 1024, 1025, 3071, 3072, 4096, 65537,
                         256 * kKiB + 3};
  for (size_t t : lens) {
    const std::string zeros(t, '\0');
    EXPECT_EQ(Crc32cZeros(t), Crc32c(zeros)) << "t=" << t;
    for (int k = 0; k < 4; k++) {
      uint32_t v = static_cast<uint32_t>(rng.Next());
      // Crc32c(B, init) = Concat(init, Crc32c(B, 0), |B|), so with B = t
      // zero bytes the shift alone is the difference of two brute-force CRCs.
      EXPECT_EQ(Crc32cConcat(v, 0, t), Crc32c(zeros, v) ^ Crc32c(zeros)) << "t=" << t;
      std::string a(rng.Range(0, 64), '\0');
      for (char& c : a) c = static_cast<char>(rng.Next());
      EXPECT_EQ(Crc32cConcat(Crc32c(a), Crc32c(zeros), t), Crc32c(a + zeros)) << "t=" << t;
    }
  }
  // Lengths too long to walk compose: Shift(Shift(v, a), b) = Shift(v, a + b).
  const uint64_t big[] = {1ull << 32, (1ull << 40) + 12345, (1ull << 62) - 1};
  for (uint64_t a : big) {
    uint32_t v = static_cast<uint32_t>(rng.Next());
    uint64_t b = rng.Range(1, 1ull << 20);
    EXPECT_EQ(Crc32cConcat(Crc32cConcat(v, 0, a), 0, b), Crc32cConcat(v, 0, a + b));
  }
}

}  // namespace
}  // namespace cfs::storage
