// Refcounted immutable byte buffer: the zero-copy payload currency of the
// data path (DESIGN.md "Simulator performance", buffer-sharing rules).
//
// A Buffer is a (shared owner, pointer, length) view over immutable bytes.
// Copying a Buffer or taking a Slice bumps a refcount instead of memcpy-ing
// payload, so a 1 MiB client write is materialized exactly once and then
// shared by every packet slice, chain-forward hop, RPC retry, raft log
// entry and append batch that carries it. Ownership rules:
//
//   - The bytes behind a live Buffer never mutate (producers hand ownership
//     to FromString and drop their reference). That makes sharing across
//     "nodes" of the simulated cluster safe: a replica reading its slice
//     observes exactly what the sender produced, whenever it gets around to
//     it.
//   - Consumers that need to retain payload past the producer's lifetime
//     just keep the Buffer (refcount holds the storage alive); consumers
//     that need mutable or owned bytes call ToString() — the one place a
//     copy happens, visible at the call site.
//   - Slices keep the whole underlying allocation alive. In tracking mode
//     an extent's contents are the slices it was written with, so a stored
//     packet pins its writer's storage until the extent drops the piece
//     (overwrite, punch, delete or a flatten; DESIGN.md "Shared immutable
//     payloads"). Tracking mode is what tests, the examples and cfsbench run.
//     An overwrite's raft log entry carries its bytes the same way, so the
//     log pins the writer's storage until the entry is compacted away.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/flat_map.h"

namespace cfs {

class Buffer {
 public:
  Buffer() = default;

  /// Adopt a string as immutable shared storage (no copy).
  static Buffer FromString(std::string s) {
    auto owner = std::make_shared<Storage>(std::move(s));
    Buffer b;
    b.data_ = owner->bytes.data();
    b.size_ = owner->bytes.size();
    b.owner_ = std::move(owner);
    return b;
  }

  /// Copy `v` into fresh shared storage.
  static Buffer CopyOf(std::string_view v) { return FromString(std::string(v)); }

  /// `n` bytes of `c` (test/bench convenience).
  static Buffer Filled(size_t n, char c) { return FromString(std::string(n, c)); }

  /// A view of [off, off+len) sharing this buffer's storage. Out-of-range
  /// requests clamp to the buffer's end.
  Buffer Slice(size_t off, size_t len) const {
    Buffer b;
    if (off > size_) off = size_;
    if (len > size_ - off) len = size_ - off;
    b.owner_ = owner_;
    b.data_ = data_ + off;
    b.size_ = len;
    return b;
  }

  std::string_view view() const { return {data_, size_}; }
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Materialize an owned copy — the only copying operation.
  std::string ToString() const { return std::string(data_, size_); }

  /// Crc32c(view(), 0), memoized in the shared storage. Every chain replica
  /// checksums the same packet bytes; the first caller pays the byte pass and
  /// the rest hit the memo (extended onto a running extent CRC with
  /// Crc32cConcat). Safe because the bytes behind a live Buffer never mutate
  /// and the memo's lifetime equals the storage's — a recycled allocation
  /// gets a fresh Storage, so entries can never go stale. Verification paths
  /// must not call this: they recompute over the bytes.
  uint32_t Crc0() const {
    if (size_ == 0) return 0;
    if (!owner_) return Crc32c(data_, size_);
    const CrcMemoKey key{static_cast<size_t>(data_ - owner_->bytes.data()), size_};
    auto& memo = owner_->crc_memo;
    auto it = memo.lower_bound(key);
    if (it != memo.end() && it->first == key) return it->second;
    uint32_t c = Crc32c(data_, size_);
    if (memo.size() < std::max(kMinCrcMemo, owner_->bytes.size() / kCrcMemoBytesPerEntry)) {
      memo.emplace(key, c);
    } else {
      // Full: the new view takes the slot at its insertion point (the last
      // one past the end). Its neighbours still bracket it, so the memo stays
      // sorted and bounded, nothing moves, and the choice is deterministic.
      if (it == memo.end()) --it;
      *it = {key, c};
    }
    return c;
  }

  /// Distinct views of this buffer's storage whose CRC is memoized.
  size_t CrcMemoSize() const { return owner_ ? owner_->crc_memo.size() : 0; }
  /// Those views as (offset in storage, length), in memo order (tests).
  std::vector<std::pair<size_t, size_t>> CrcMemoKeys() const {
    std::vector<std::pair<size_t, size_t>> keys;
    if (owner_) {
      for (const auto& [key, crc] : owner_->crc_memo) keys.push_back(key);
    }
    return keys;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) { return a.view() == b.view(); }
  friend bool operator==(const Buffer& a, std::string_view b) { return a.view() == b; }

 private:
  using CrcMemoKey = std::pair<size_t, size_t>;  // (offset in storage, len)
  struct Storage {
    explicit Storage(std::string s) : bytes(std::move(s)) {}
    const std::string bytes;
    /// One entry per distinct view that was checksummed: a single large
    /// writer buffer (a client's pool of payloads) is sliced into one view
    /// per packet, so the bound scales with the storage's bytes — one entry
    /// per 4 KiB, never fewer than 64. Past it, a new view replaces an
    /// existing entry: the replicas checksumming one packet ask back to
    /// back, so the newest views are the ones worth keeping.
    mutable FlatMap<CrcMemoKey, uint32_t> crc_memo;
  };
  static constexpr size_t kMinCrcMemo = 64;
  static constexpr size_t kCrcMemoBytesPerEntry = 4096;

  std::shared_ptr<const Storage> owner_;
  const char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace cfs
