//===- support/Hash.h - FNV-1a byte hashes ----------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one stable byte hash, FNV-1a, in 64- and 32-bit widths.
/// std::hash is neither stable across runs nor across platforms, and
/// these values are written to disk and to the wire (TBLG END checksums,
/// TBX2 headers, TBNF frames, TBSIG fingerprints), so every caller names
/// its seed explicitly: changing one changes a format.
///
/// The seed is also the running state, so a hash over several ranges is
/// fnv1a64(B, LenB, fnv1a64(A, LenA, Seed)).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_HASH_H
#define TRACEBACK_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace traceback {

/// The FNV-1a 64-bit offset basis (TBLG END checksums, replay candidate
/// hashes).
constexpr uint64_t Fnv64Basis = 0xcbf29ce484222325ull;

/// The seed of the collector's TBX2 header, page-sum-table and journal
/// window hashes, its payload dedup hash, the daemon's shard hash and
/// triage's signatureHash: the 64-bit basis's decimal spelling with its
/// last digit dropped. Fingerprints and checkpoints on disk were made
/// with it, so it stays.
constexpr uint64_t Fnv64ShortBasis = 1469598103934665603ull;

/// The FNV-1a 32-bit offset basis (TBNF frame checksums).
constexpr uint32_t Fnv32Basis = 2166136261u;

/// FNV-1a 64 of \p Len bytes at \p Data, starting from \p Seed.
inline uint64_t fnv1a64(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// FNV-1a 64 of \p V's eight bytes, least significant first, starting
/// from \p Seed. Shifting the bytes out of the word keeps the result
/// independent of host byte order and avoids a round trip through memory.
inline uint64_t fnv1a64Word(uint64_t V, uint64_t Seed) {
  uint64_t H = Seed;
  for (int I = 0; I < 8; ++I) {
    H ^= static_cast<uint8_t>(V >> (I * 8));
    H *= 0x100000001b3ull;
  }
  return H;
}

/// FNV-1a 32 of \p Len bytes at \p Data, starting from \p Seed.
inline uint32_t fnv1a32(const void *Data, size_t Len, uint32_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 16777619u;
  }
  return H;
}

} // namespace traceback

#endif // TRACEBACK_SUPPORT_HASH_H
