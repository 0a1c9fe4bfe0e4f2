// CRC32C (Castagnoli). Profiling the 100-node fig9 smoke showed payload
// checksumming dominating wall-clock (the accounting-mode extent store CRCs
// every packet), so this implements two fast paths with identical outputs:
//
//   - hardware: SSE4.2 `crc32` instruction, 8 bytes per issue, selected at
//     runtime via __builtin_cpu_supports so the binary still runs on
//     pre-Nehalem x86 (and the function multi-versioning keeps -msse4.2 out
//     of the global flags);
//   - software: slice-by-8 table walk (8 parallel table lanes per 8-byte
//     chunk) as the portable fallback, ~5-6x the byte-at-a-time loop.
//
// Both reduce the same reflected polynomial, so the value is bit-identical
// to the original byte-at-a-time implementation — checksum changes would
// alter simulated message contents and break the determinism golden hashes.
#include "common/crc32.h"

#include <array>
#include <cstring>

namespace cfs {
namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC32C polynomial

// tables[0] is the classic byte table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, letting 8 input bytes fold in parallel.
std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (int k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

const std::array<std::array<uint32_t, 256>, 8>& Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = MakeTables();
  return tables;
}

uint32_t CrcSoftware(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& t = Tables();
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;  // little-endian: crc folds into the low 4 bytes
    crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
          t[1][(w >> 48) & 0xff] ^ t[0][(w >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n--) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xff];
  }
  return crc;
}

// CFS_CRC32_FORCE_SW pins the portable path (used by the cross-check in
// tests to exercise slice-by-8 on hardware that would dispatch to SSE4.2).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(CFS_CRC32_FORCE_SW)
#define CFS_CRC32_HW 1

// The `crc32` instruction has 3-cycle latency but 1-cycle throughput, so a
// single dependent chain runs at a third of what the unit can sustain.
// Large buffers are split into three independent legs of kCrcLeg bytes
// checksummed in one interleaved loop, then recombined: appending L zero
// bytes to a CRC is a linear operator over GF(2), captured once in a 4x256
// lookup table, and crc(X||Y) = ShiftL(crc(X)) ^ crc(Y with init 0).
constexpr size_t kCrcLeg = 1024;

std::array<std::array<uint32_t, 256>, 4> MakeShiftTable() {
  const auto& t = Tables();
  std::array<std::array<uint32_t, 256>, 4> s{};
  for (int k = 0; k < 4; k++) {
    for (uint32_t b = 0; b < 256; b++) {
      uint32_t crc = b << (8 * k);
      for (size_t i = 0; i < kCrcLeg; i++) {
        crc = (crc >> 8) ^ t[0][crc & 0xff];
      }
      s[k][b] = crc;
    }
  }
  return s;
}

uint32_t ShiftLeg(uint32_t crc) {
  static const std::array<std::array<uint32_t, 256>, 4> s = MakeShiftTable();
  return s[0][crc & 0xff] ^ s[1][(crc >> 8) & 0xff] ^ s[2][(crc >> 16) & 0xff] ^
         s[3][crc >> 24];
}

__attribute__((target("sse4.2"))) uint32_t CrcHardware(const uint8_t* p, size_t n, uint32_t crc) {
  uint64_t c = crc;
  while (n >= 3 * kCrcLeg) {
    uint64_t c0 = c, c1 = 0, c2 = 0;
    for (size_t i = 0; i < kCrcLeg; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kCrcLeg + i, 8);
      std::memcpy(&w2, p + 2 * kCrcLeg + i, 8);
      c0 = __builtin_ia32_crc32di(c0, w0);
      c1 = __builtin_ia32_crc32di(c1, w1);
      c2 = __builtin_ia32_crc32di(c2, w2);
    }
    c = ShiftLeg(ShiftLeg(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1)) ^
        static_cast<uint32_t>(c2);
    p += 3 * kCrcLeg;
    n -= 3 * kCrcLeg;
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n--) {
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  }
  return c32;
}

bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif

// --- Zero-extension operator for Crc32cConcat ---------------------------
// Appending n zero bytes to a CRC register multiplies it by x^(8n) modulo the
// polynomial (GF(2), reflected bit order: bit 31 is x^0). x^(8n) is the
// product of fixed x^(8*2^k) factors, one per set bit of n (zlib's
// crc32_combine: x2nmodp/multmodp). Cost is O(log n) for any length, with no
// per-length state.

// a*b mod p, with both operands in reflected bit order.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31;  // x^0
  uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// t[k] = x^(8 * 2^k) mod p: the operator for 2^k zero bytes.
std::array<uint32_t, 64> MakeZeroBytesTable() {
  std::array<uint32_t, 64> t{};
  uint32_t p = 1u << 30;  // x^1
  for (int i = 0; i < 3; i++) p = MultModP(p, p);  // x^8
  for (int k = 0; k < 64; k++) {
    t[k] = p;
    p = MultModP(p, p);
  }
  return t;
}

// x^(8n) mod p.
uint32_t ZeroBytesOp(uint64_t n) {
  static const std::array<uint32_t, 64> t = MakeZeroBytesTable();
  uint32_t p = 1u << 31;  // x^0
  for (int k = 0; n != 0; n >>= 1, k++) {
    if (n & 1) p = MultModP(t[k], p);
  }
  return p;
}

}  // namespace

uint32_t Crc32cConcat(uint32_t crc_a, uint32_t crc_b0, size_t len_b) {
  // Crc32c(A||B, init) = L_lenB(Crc32c(A, init)) ^ Crc32c(B, 0): the pre/post
  // inversions cancel when the operator is applied to the finalized value.
  return MultModP(ZeroBytesOp(len_b), crc_a) ^ crc_b0;
}

uint32_t Crc32cZeros(size_t n) {
  // Zero bytes only shift the pre-inverted register: ~(x^(8n) * ~0).
  return ~Crc32cConcat(~0u, 0, n);
}

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
#ifdef CFS_CRC32_HW
  if (HaveSse42()) return ~CrcHardware(p, n, crc);
#endif
  return ~CrcSoftware(p, n, crc);
}

}  // namespace cfs
