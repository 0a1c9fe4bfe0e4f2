// CRC32C (Castagnoli), software table implementation. Used by the extent
// store to verify data integrity; the per-extent CRC is cached in memory as
// described in §2.2.1 of the paper.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string_view>

namespace cfs {

/// Compute CRC32C of `data`, continuing from `init` (0 for a fresh CRC).
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

inline uint32_t Crc32c(std::string_view s, uint32_t init = 0) {
  return Crc32c(s.data(), s.size(), init);
}

/// CRC of a concatenation from the parts' CRCs, without touching the bytes:
/// given crc_a = Crc32c(A, init) and crc_b0 = Crc32c(B, 0), returns
/// Crc32c(A||B, init). Appending len_b bytes shifts crc_a through a linear
/// operator over GF(2), x^(8*len_b) mod p, built in O(log len_b) from a fixed
/// table, so extending a running extent CRC with a payload whose own CRC is
/// already known costs no pass over the bytes. Bit-identical to
/// Crc32c(B, crc_a). Crc32cConcat(v, 0, t) is that shift alone: the change a
/// CRC difference `v` makes once `t` more bytes follow it.
uint32_t Crc32cConcat(uint32_t crc_a, uint32_t crc_b0, size_t len_b);

/// Crc32c of `n` zero bytes in O(log n), without a byte pass: zero-filled
/// extent ranges (laid-down and punched) are checksummed from their length.
uint32_t Crc32cZeros(size_t n);

}  // namespace cfs
