#include "storage/extent_store.h"

#include <algorithm>

namespace cfs::storage {

namespace {
/// Detached disk-time charge used by the synchronous apply variants.
sim::Task<void> ChargeWrite(sim::Disk* disk, uint64_t bytes) {
  (void)co_await disk->Write(bytes);
}

/// Accounting-mode reads serve slices of one shared zero block instead of
/// allocating and zero-filling a fresh string per read.
constexpr uint64_t kZeroBlockBytes = 256 * kKiB;
Buffer ZeroBlock(uint64_t len) {
  static const Buffer zeros = Buffer::Filled(kZeroBlockBytes, '\0');
  if (len <= zeros.size()) return zeros.Slice(0, len);
  return Buffer::Filled(len, '\0');
}

/// Same-length in-place replace of e.data[offset, offset + y.size()) by `y`
/// (tracking mode), keeping the cached CRC exact without re-walking the
/// extent. CRC32C is affine over GF(2): two same-length messages differ in
/// CRC by the linear CRC of their xor, which is zero outside the replaced
/// range. With X the old bytes and t the bytes after the range,
///   crc' = crc ^ Shift(Crc32c(X) ^ Crc32c(Y), t),  Shift(v, t) = Crc32cConcat(v, 0, t),
/// so the cost is at most O(len + log t), not O(extent), and only O(log t)
/// when the memo holds Crc32c(X). `y_crc` is Crc32c(Y).
void SpliceInPlace(Extent* e, uint64_t offset, const Buffer& y, uint32_t y_crc) {
  uint32_t delta = e->data.Splice(offset, y) ^ y_crc;
  e->crc ^= Crc32cConcat(delta, 0, e->size - offset - y.size());
}
}  // namespace

void Rope::Append(Buffer b) {
  if (b.empty()) return;
  const uint64_t off = size_;
  size_ += b.size();
  pieces_.push_back({off, std::move(b)});
  FlattenIfOverBound();
}

size_t Rope::PieceAt(uint64_t off) const {
  auto it = std::upper_bound(pieces_.begin(), pieces_.end(), off,
                             [](uint64_t o, const Piece& p) { return o < p.off; });
  return static_cast<size_t>(it - pieces_.begin()) - 1;
}

uint32_t Rope::Splice(uint64_t off, Buffer y) {
  if (y.empty()) return 0;
  const uint64_t end = off + y.size();
  const size_t i = PieceAt(off), j = PieceAt(end - 1);
  uint32_t replaced = 0;
  for (size_t k = i; k <= j; k++) {
    const Piece& p = pieces_[k];
    const uint64_t lo = std::max(off, p.off), hi = std::min(end, p.off + p.bytes.size());
    const Buffer covered = p.bytes.Slice(lo - p.off, hi - lo);
    replaced = Crc32cConcat(replaced, covered.Crc0(), covered.size());
  }
  // The head of the first covered piece, `y`, and the tail of the last.
  Piece repl[3];
  size_t n = 0;
  const Piece& first = pieces_[i];
  const Piece& last = pieces_[j];
  if (first.off < off) repl[n++] = {first.off, first.bytes.Slice(0, off - first.off)};
  repl[n++] = {off, std::move(y)};
  const uint64_t last_end = last.off + last.bytes.size();
  if (end < last_end) repl[n++] = {end, last.bytes.Slice(end - last.off, last_end - end)};
  const size_t covered_n = j - i + 1;
  if (covered_n > n) {
    pieces_.erase(pieces_.begin() + i + n, pieces_.begin() + i + covered_n);
  } else if (covered_n < n) {
    pieces_.insert(pieces_.begin() + i + covered_n, n - covered_n, Piece{});
  }
  std::move(repl, repl + n, pieces_.begin() + i);
  FlattenIfOverBound();
  return replaced;
}

Buffer Rope::Read(uint64_t off, uint64_t len) const {
  if (len == 0) return Buffer();
  size_t i = PieceAt(off);
  const Piece& p = pieces_[i];
  if (off + len <= p.off + p.bytes.size()) return p.bytes.Slice(off - p.off, len);
  std::string out;
  out.reserve(len);
  for (; out.size() < len; i++) {
    const Piece& q = pieces_[i];
    out.append(q.bytes.view().substr(off + out.size() - q.off, len - out.size()));
  }
  return Buffer::FromString(std::move(out));
}

uint32_t Rope::Crc() const {
  uint32_t crc = 0;
  for (const Piece& p : pieces_) crc = Crc32c(p.bytes.data(), p.bytes.size(), crc);
  return crc;
}

void Rope::FlattenIfOverBound() {
  if (pieces_.size() <= 1 + size_ / kBytesPerPiece) return;
  std::string flat;
  flat.reserve(size_);
  for (const Piece& p : pieces_) flat.append(p.bytes.view());
  pieces_.assign(1, Piece{0, Buffer::FromString(std::move(flat))});
}

Status ExtentStore::OverwriteSync(ExtentId id, uint64_t offset, const Buffer& data) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (offset + data.size() > e->size) return Status::InvalidArgument("overwrite beyond end");
  if (RangeIsPunched(*e, offset, data.size())) {
    return Status::InvalidArgument("overwrite into punched hole");
  }
  if (opts_.track_contents) {
    SpliceInPlace(e, offset, data, data.Crc0());
  } else {
    e->crc ^= data.Crc0();
  }
  sim::Spawn(ChargeWrite(disk_, data.size()));
  return Status::OK();
}

Status ExtentStore::DeleteExtentSync(ExtentId id) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (e->tiny) return Status::InvalidArgument("tiny extents are freed via punch hole");
  uint64_t phys = e->PhysicalBytes();
  logical_bytes_ -= e->size;
  physical_bytes_ -= phys;
  disk_->PunchHole(phys);
  if (active_tiny_ == id) active_tiny_ = 0;
  extents_.erase(id);
  sim::Spawn(ChargeWrite(disk_, 0));
  return Status::OK();
}

Status ExtentStore::PunchHoleSync(ExtentId id, uint64_t offset, uint64_t len) {
  Extent* e = FindMutable(id);
  if (!e) return Status::NotFound("extent " + std::to_string(id));
  if (offset + len > e->size) return Status::InvalidArgument("hole beyond extent end");
  if (RangeIsPunched(*e, offset, len)) return Status::InvalidArgument("range already punched");
  e->holes.emplace_back(offset, len);
  std::sort(e->holes.begin(), e->holes.end());
  e->punched_bytes += len;
  physical_bytes_ -= len;
  disk_->PunchHole(len);
  if (opts_.track_contents) SpliceInPlace(e, offset, ZeroBlock(len), Crc32cZeros(len));
  // fallocate(PUNCH_HOLE) is metadata-only on the device: charge a fixed
  // small latency, not a data transfer.
  sim::Spawn(ChargeWrite(disk_, 0));
  if (e->FullyPunched()) {
    logical_bytes_ -= e->size;
    if (active_tiny_ == id) active_tiny_ = 0;
    extents_.erase(id);
  }
  return Status::OK();
}

ExtentId ExtentStore::CreateExtent() {
  ExtentId id = next_id_++;
  Extent e;
  e.id = id;
  extents_.emplace(id, std::move(e));
  return id;
}

Status ExtentStore::CreateExtentWithId(ExtentId id, bool tiny) {
  if (extents_.count(id)) return Status::AlreadyExists("extent " + std::to_string(id));
  Extent e;
  e.id = id;
  e.tiny = tiny;
  extents_.emplace(id, std::move(e));
  if (id >= next_id_) next_id_ = id + 1;
  return Status::OK();
}

Status ExtentStore::ImportExtent(ExtentId id, uint64_t size, bool tiny) {
  CFS_RETURN_IF_ERROR(CreateExtentWithId(id, tiny));
  Extent* e = FindMutable(id);
  e->size = size;
  e->crc = 0;
  if (opts_.track_contents) {
    // Zero contents as slices of the shared zero block; the cached CRC must
    // agree with the laid-down bytes.
    for (uint64_t off = 0; off < size; off += kZeroBlockBytes) {
      e->data.Append(ZeroBlock(std::min(size - off, kZeroBlockBytes)));
    }
    e->crc = Crc32cZeros(size);
  }
  logical_bytes_ += size;
  physical_bytes_ += size;
  return Status::OK();
}

sim::Task<Status> ExtentStore::PlaceAt(ExtentId id, uint64_t offset, Buffer data,
                                       obs::TraceContext trace) {
  Extent* e = FindMutable(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  if (offset != e->size) co_return Status::InvalidArgument("out-of-order placement");
  if (e->size + data.size() > opts_.extent_size_limit) co_return Status::NoSpace("extent full");
  const uint64_t n = AppendBytes(e, std::move(data));
  co_return co_await disk_->Write(n, trace);
}

uint64_t ExtentStore::AppendBytes(Extent* e, Buffer data) {
  const uint64_t n = data.size();
  e->crc = Crc32cConcat(e->crc, data.Crc0(), n);
  if (opts_.track_contents) e->data.Append(std::move(data));
  e->size += n;
  logical_bytes_ += n;
  physical_bytes_ += n;
  return n;
}

Extent* ExtentStore::FindMutable(ExtentId id) {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : &it->second;
}

const Extent* ExtentStore::Find(ExtentId id) const {
  auto it = extents_.find(id);
  return it == extents_.end() ? nullptr : &it->second;
}

uint64_t ExtentStore::ExtentSize(ExtentId id) const {
  const Extent* e = Find(id);
  return e ? e->size : 0;
}

bool ExtentStore::RangeIsPunched(const Extent& e, uint64_t offset, uint64_t len) const {
  if (e.punched_bytes == 0) return false;  // hot path: most extents have no holes
  for (const auto& [ho, hl] : e.holes) {
    if (offset < ho + hl && ho < offset + len) return true;  // overlap
  }
  return false;
}

sim::Task<Result<Buffer>> ExtentStore::Read(ExtentId id, uint64_t offset, uint64_t len,
                                            obs::TraceContext trace) {
  const Extent* e = Find(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  if (offset + len > e->size) co_return Status::InvalidArgument("read beyond extent end");
  if (RangeIsPunched(*e, offset, len)) {
    co_return Status::InvalidArgument("read from punched hole");
  }
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Read(len, trace));
  if (!opts_.track_contents) co_return ZeroBlock(len);
  // `e` may dangle: during the disk await an insert can relocate the
  // extent's FlatMap slot, and a delete or a final punch can remove it.
  e = Find(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  // Whole-extent reads verify against the cached CRC.
  if (offset == 0 && len == e->size && e->data.Crc() != e->crc) {
    co_return Status::Corruption("extent crc mismatch");
  }
  co_return e->data.Read(offset, len);
}

sim::Task<Result<std::pair<ExtentId, uint64_t>>> ExtentStore::WriteSmall(
    Buffer data, obs::TraceContext trace) {
  if (data.size() > opts_.small_file_threshold) {
    co_return Status::InvalidArgument("not a small file");
  }
  Extent* tiny = active_tiny_ ? FindMutable(active_tiny_) : nullptr;
  if (!tiny || tiny->size + data.size() > opts_.extent_size_limit) {
    ExtentId id = CreateExtent();
    tiny = FindMutable(id);
    tiny->tiny = true;
    active_tiny_ = id;
  }
  uint64_t offset = tiny->size;
  ExtentId id = tiny->id;
  const uint64_t n = AppendBytes(tiny, std::move(data));
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Write(n, trace));
  co_return std::make_pair(id, offset);
}

sim::Task<Status> ExtentStore::VerifyExtent(ExtentId id) {
  const Extent* e = Find(id);
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  CFS_CO_RETURN_IF_ERROR(co_await disk_->Read(e->PhysicalBytes()));
  if (!opts_.track_contents) co_return Status::OK();
  e = Find(id);  // the await may have moved or removed the extent
  if (!e) co_return Status::NotFound("extent " + std::to_string(id));
  if (e->data.Crc() != e->crc) {
    co_return Status::Corruption("extent " + std::to_string(id) + " crc mismatch");
  }
  co_return Status::OK();
}

void ExtentStore::CheckInvariants(InvariantReport* report, const std::string& label) const {
  auto where = [&](ExtentId id) {
    return (label.empty() ? std::string() : label + " ") + "extent " + std::to_string(id);
  };
  uint64_t logical = 0, physical = 0;
  ExtentId max_id = 0;
  for (const auto& [id, e] : extents_) {
    max_id = std::max(max_id, id);
    if (e.id != id) {
      report->Violation("extent", where(id) + ": stored id " + std::to_string(e.id) +
                                      " disagrees with map key");
    }
    // Punch-hole bookkeeping: holes sorted, disjoint, inside the extent, and
    // their total length equals punched_bytes.
    uint64_t hole_total = 0, prev_end = 0;
    bool holes_ok = true;
    for (const auto& [ho, hl] : e.holes) {
      if (ho < prev_end) {
        report->Violation("extent", where(id) + ": holes overlap or are unsorted at offset " +
                                        std::to_string(ho));
        holes_ok = false;
        break;
      }
      if (ho + hl > e.size) {
        report->Violation("extent", where(id) + ": hole [" + std::to_string(ho) + ", " +
                                        std::to_string(ho + hl) + ") beyond size " +
                                        std::to_string(e.size));
        holes_ok = false;
        break;
      }
      hole_total += hl;
      prev_end = ho + hl;
    }
    if (holes_ok && hole_total != e.punched_bytes) {
      report->Violation("extent", where(id) + ": punched_bytes " +
                                      std::to_string(e.punched_bytes) +
                                      " != sum of hole lengths " + std::to_string(hole_total));
    }
    if (e.punched_bytes > e.size) {
      report->Violation("extent", where(id) + ": punched_bytes exceeds size");
    }
    if (e.FullyPunched()) {
      report->Violation("extent", where(id) + ": fully punched extent still resident");
    }
    if (opts_.track_contents) {
      if (e.data.size() != e.size) {
        report->Violation("extent", where(id) + ": data size " +
                                        std::to_string(e.data.size()) +
                                        " != logical size " + std::to_string(e.size));
      } else if (e.data.Crc() != e.crc) {
        report->Violation("extent", where(id) + ": cached CRC disagrees with contents");
      }
      if (e.data.num_pieces() > 1 + e.size / Rope::kBytesPerPiece) {
        report->Violation("extent", where(id) + ": " + std::to_string(e.data.num_pieces()) +
                                        " pieces exceed the bound for " +
                                        std::to_string(e.size) + " bytes");
      }
    }
    logical += e.size;
    physical += e.PhysicalBytes();
  }
  if (logical != logical_bytes_) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": logical_bytes " + std::to_string(logical_bytes_) +
                                    " != sum of extent sizes " + std::to_string(logical));
  }
  if (physical != physical_bytes_) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": physical_bytes " + std::to_string(physical_bytes_) +
                                    " != sum of resident bytes " + std::to_string(physical));
  }
  if (!extents_.empty() && next_id_ <= max_id) {
    report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                    ": id allocator " + std::to_string(next_id_) +
                                    " not past max extent id " + std::to_string(max_id));
  }
  if (active_tiny_ != 0) {
    const Extent* t = Find(active_tiny_);
    if (!t) {
      report->Violation("extent", (label.empty() ? std::string("store") : label) +
                                      ": active tiny extent " + std::to_string(active_tiny_) +
                                      " does not exist");
    } else if (!t->tiny) {
      report->Violation("extent", where(active_tiny_) + ": active tiny extent not flagged tiny");
    }
  }
}

sim::Task<Status> ExtentStore::RebuildCrcCache() {
  uint64_t scanned = 0;
  for (auto& [id, e] : extents_) {
    scanned += e.PhysicalBytes();
    if (opts_.track_contents) e.crc = e.data.Crc();
  }
  co_return co_await disk_->Read(scanned + 64);
}

}  // namespace cfs::storage
