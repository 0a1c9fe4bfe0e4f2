// The extent store (§2.2): the data-partition storage engine.
//
// Large files are stored as a sequence of private extents — a new file
// always starts writing at offset zero of a fresh extent, the last extent is
// never padded, and an extent never mixes files (§2.2.2). Small files (size
// <= `small_file_threshold`, 128 KB by default) are aggregated into shared
// "tiny" extents; the physical offset of each small file in the extent is
// recorded at the meta node, and deletion frees the range asynchronously via
// the punch-hole interface instead of a garbage collector (§2.2.3).
//
// Each extent's CRC is cached in memory to speed up integrity checks
// (§2.2.1). Byte contents are retained only when `track_contents` is on
// (tests, the examples and cfsbench, which check every byte read back); the
// paper-figure benches run in accounting mode where sizes, CRCs and disk
// timing are tracked without materializing gigabytes of payload. Retained
// contents are the immutable payload slices the chain and raft delivered,
// held by reference (Rope), so a packet's bytes are resident once per
// cluster, not once per replica.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/check.h"
#include "common/flat_map.h"
#include "common/crc32.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/disk.h"
#include "sim/task.h"

namespace cfs::storage {

using ExtentId = uint64_t;

struct ExtentStoreOptions {
  uint64_t extent_size_limit = 128 * kMiB;
  uint64_t small_file_threshold = 128 * kKiB;  // the paper's threshold t
  /// Keep real byte contents (tests) or account sizes/timing only (benches).
  bool track_contents = true;
};

/// Tracking-mode contents of one extent: the immutable Buffer slices it was
/// written with, in offset order (DESIGN.md "Shared immutable payloads").
/// Appends and same-length splices never move a piece's start, so the piece
/// holding a byte is found by binary search. The piece count is bounded by
/// bytes: past 1 + size / 4 KiB pieces the rope flattens into one owned
/// Buffer. A flatten copies `size` bytes and needs size / 4 KiB pieces added
/// since the last one, so it costs at most 4 KiB of copying per piece added.
class Rope {
 public:
  static constexpr uint64_t kBytesPerPiece = 4 * kKiB;

  uint64_t size() const { return size_; }
  size_t num_pieces() const { return pieces_.size(); }

  void Append(Buffer b);
  /// Replace [off, off + y.size()), which must lie inside the rope, by `y`.
  /// Splits at most the two boundary pieces. Returns Crc32c of the replaced
  /// bytes, combined from the covered pieces' memoized Buffer::Crc0.
  uint32_t Splice(uint64_t off, Buffer y);
  /// The bytes [off, off + len), which must lie inside the rope: a slice of
  /// the stored payload when the range lies inside one piece, else one
  /// gathered copy.
  Buffer Read(uint64_t off, uint64_t len) const;
  /// Crc32c of the contents from a full pass over every piece's bytes. It
  /// never consults the CRC memo, so verification built on it is real.
  uint32_t Crc() const;

 private:
  struct Piece {
    uint64_t off = 0;
    Buffer bytes;
  };
  /// Index of the piece holding byte `off` (< size()).
  size_t PieceAt(uint64_t off) const;
  void FlattenIfOverBound();

  std::vector<Piece> pieces_;  // contiguous, non-empty, sorted by off
  uint64_t size_ = 0;
};

/// One storage unit. `size` is the logical end-of-extent offset; punched
/// ranges release physical space without shrinking the logical size.
struct Extent {
  ExtentId id = 0;
  uint64_t size = 0;
  uint32_t crc = 0;  // cached in memory (rebuilt on recovery)
  bool tiny = false;  // shared small-file extent
  uint64_t punched_bytes = 0;
  std::vector<std::pair<uint64_t, uint64_t>> holes;  // (offset, len), sorted
  Rope data;  // only when track_contents

  /// Physical bytes still occupied on disk.
  uint64_t PhysicalBytes() const { return size - punched_bytes; }
  bool FullyPunched() const { return size > 0 && punched_bytes >= size; }
};

class ExtentStore {
 public:
  ExtentStore(sim::Disk* disk, const ExtentStoreOptions& opts = {})
      : disk_(disk), opts_(opts) {}

  const ExtentStoreOptions& options() const { return opts_; }

  /// Allocate a fresh (large-file) extent and return its id.
  ExtentId CreateExtent();

  /// Next id CreateExtent would hand out. Large-extent allocation at the
  /// chain leader (DataPartition::AllocExtentId) folds this in so tiny
  /// extents (allocated store-side by WriteSmall) and chained large extents
  /// never collide in the shared id namespace.
  ExtentId peek_next_id() const { return next_id_; }

  /// Replica path: create an extent with a leader-assigned id (the chain
  /// replicates leader decisions, so ids must match across replicas).
  Status CreateExtentWithId(ExtentId id, bool tiny);

  /// Bench/test rig: materialize an extent of `size` logical bytes without
  /// simulating the writes (stands in for fio's laydown phase, which the
  /// paper's measurements exclude). Contents are zero in tracking mode.
  Status ImportExtent(ExtentId id, uint64_t size, bool tiny);

  /// Replica path: place bytes at an exact offset, which must equal the
  /// extent's current size (the chain delivers placements in order; callers
  /// buffer out-of-order arrivals). Returns NoSpace once the extent reaches
  /// its size limit. A traced caller passes its span context so the disk
  /// write shows up as a "disk:write" child span.
  ///
  /// Write paths take the shared Buffer (by value — a refcount bump) and,
  /// in tracking mode, keep it as the extent's next piece. Its memoized
  /// payload CRC (Buffer::Crc0) lets the second and third chain replicas
  /// extend their cached extent CRC via Crc32cConcat instead of
  /// re-checksumming the same bytes. The string_view overloads below are
  /// conveniences for tests/tools and pay a copy.
  sim::Task<Status> PlaceAt(ExtentId id, uint64_t offset, Buffer data,
                            obs::TraceContext trace = {});
  sim::Task<Status> PlaceAt(ExtentId id, uint64_t offset, std::string_view data,
                            obs::TraceContext trace = {}) {
    return PlaceAt(id, offset, Buffer::CopyOf(data), trace);
  }

  /// Visit (id, extent) pairs in id order.
  template <typename F>
  void ForEach(F fn) const {
    for (const auto& [id, e] : extents_) fn(e);
  }

  // --- Raft-applied mutations (§2.2.4 overwrite path) ---
  // Raft state machines apply commands synchronously; these validate and
  // mutate inline and charge the disk time as a detached task.

  /// In-place overwrite of already-written bytes (§2.7.2: random writes in
  /// CFS are in-place; the extent layout and file offsets do not change).
  /// `data` is a slice of the raft entry, so its CRC memo (Buffer::Crc0) is
  /// shared by every replica applying that entry. The cached extent CRC is
  /// kept exact in time proportional to the bytes written.
  Status OverwriteSync(ExtentId id, uint64_t offset, const Buffer& data);
  /// Large-file delete path: remove the whole extent from disk (§2.2.3:
  /// "different from deleting large files, where the extents of the file can
  /// be removed directly").
  Status DeleteExtentSync(ExtentId id);
  /// Release a small file's range via fallocate(PUNCH_HOLE): zero the bytes
  /// (cached CRC kept exact). The extent is removed entirely once every byte
  /// of it has been punched.
  Status PunchHoleSync(ExtentId id, uint64_t offset, uint64_t len);

  /// Read `len` bytes at `offset`; a whole-extent read verifies the cached
  /// CRC with a full pass when contents are tracked. Reading a punched range
  /// is a caller bug -> InvalidArgument. Returns a shared Buffer: a range
  /// inside one stored piece is a slice of it, and the response path ships
  /// it without copying (accounting mode serves slices of one static zero
  /// block).
  sim::Task<Result<Buffer>> Read(ExtentId id, uint64_t offset, uint64_t len,
                                 obs::TraceContext trace = {});

  /// Small-file write: aggregate into the current tiny extent. Returns the
  /// (extent id, physical offset) pair the meta node records.
  sim::Task<Result<std::pair<ExtentId, uint64_t>>> WriteSmall(Buffer data,
                                                              obs::TraceContext trace = {});
  sim::Task<Result<std::pair<ExtentId, uint64_t>>> WriteSmall(std::string_view data,
                                                              obs::TraceContext trace = {}) {
    return WriteSmall(Buffer::CopyOf(data), trace);
  }

  /// Verify the cached CRC of an extent against its contents (tracking mode
  /// only). Used by replica repair.
  sim::Task<Status> VerifyExtent(ExtentId id);

  /// Rebuild the in-memory CRC cache after a restart (charges a scan read).
  sim::Task<Status> RebuildCrcCache();

  const Extent* Find(ExtentId id) const;
  bool Has(ExtentId id) const { return extents_.count(id) > 0; }
  uint64_t ExtentSize(ExtentId id) const;

  /// Deep check (see common/check.h): per-extent hole/punch bookkeeping,
  /// logical/physical byte aggregates, id-allocator high-water mark, and (in
  /// tracking mode) cached-CRC agreement with the byte contents. Violations
  /// are tagged "extent" and prefixed with `label`.
  void CheckInvariants(InvariantReport* report, const std::string& label = "") const;

  /// Negative-test hook: direct mutable access so tests can seed a
  /// deliberate corruption and assert CheckInvariants fires. Not for
  /// production paths.
  Extent* MutableExtentForTest(ExtentId id) { return FindMutable(id); }

  size_t num_extents() const { return extents_.size(); }
  uint64_t logical_bytes() const { return logical_bytes_; }
  uint64_t physical_bytes() const { return physical_bytes_; }

 private:
  Extent* FindMutable(ExtentId id);
  bool RangeIsPunched(const Extent& e, uint64_t offset, uint64_t len) const;
  /// Shared by PlaceAt and WriteSmall: extend the cached CRC from
  /// the payload's memoized Crc0, keep the payload as the extent's next
  /// piece (tracking mode) and grow the byte counts. Returns the length.
  uint64_t AppendBytes(Extent* e, Buffer data);

  sim::Disk* disk_;
  ExtentStoreOptions opts_;
  /// Sorted flat vector: every packet of every write/read does a point
  /// lookup here; stores hold at most a few hundred extents, so binary
  /// search over contiguous memory wins. ForEach stays id-ordered.
  FlatMap<ExtentId, Extent> extents_;
  ExtentId next_id_ = 1;
  /// Current tiny extent receiving small-file appends (0 = none yet).
  ExtentId active_tiny_ = 0;
  uint64_t logical_bytes_ = 0;
  uint64_t physical_bytes_ = 0;
};

}  // namespace cfs::storage
