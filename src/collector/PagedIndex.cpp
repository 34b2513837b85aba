//===- collector/PagedIndex.cpp - TBIX v2 paged index checkpoint ----------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/PagedIndex.h"

#include "support/Hash.h"
#include "triage/Signature.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

using namespace traceback;

namespace {

/// Data-page checksum: a 4-lane multiply-xor hash over the page's 64-bit
/// words. Open validates every data page of a potentially multi-hundred-
/// megabyte checkpoint in one streaming pass, so the page hash runs
/// word-wise with four independent dependency chains instead of FNV's
/// serial byte chain — same fixed-page granularity, ~an order of
/// magnitude faster. FNV-1a stays the hash for the small inputs (header,
/// page-sum table, journal windows) where simplicity wins.
uint64_t pageSum64(const uint8_t *P) {
  constexpr uint64_t M = 0x9ddfea08eb382d69ull;
  uint64_t H0 = 0x9e3779b97f4a7c15ull, H1 = 0xc2b2ae3d27d4eb4full,
           H2 = 0x165667b19e3779f9ull, H3 = 0x27d4eb2f165667c5ull;
  for (size_t I = 0; I < TbixPageSize; I += 32) {
    uint64_t W0, W1, W2, W3;
    std::memcpy(&W0, P + I, 8);
    std::memcpy(&W1, P + I + 8, 8);
    std::memcpy(&W2, P + I + 16, 8);
    std::memcpy(&W3, P + I + 24, 8);
    H0 = (H0 ^ W0) * M;
    H1 = (H1 ^ W1) * M;
    H2 = (H2 ^ W2) * M;
    H3 = (H3 ^ W3) * M;
  }
  uint64_t H = (H0 ^ (H1 >> 29)) * M + H1;
  H = (H ^ (H2 >> 29)) * M + H2;
  H = (H ^ (H3 >> 29)) * M + H3;
  return H ^ (H >> 32);
}

constexpr uint32_t TbixMagic = 0x32584254; // "TBX2"
constexpr uint32_t TbixVersion = 2;

/// Header field order (see serializeHeader). The header occupies page 0;
/// everything after UsedBytes is zero padding.
struct HeaderFields {
  uint64_t FileBytes = 0;
  uint64_t EntryCount = 0;
  uint64_t NextId = 1;
  uint64_t LiveCount = 0;
  uint64_t LiveBytes = 0;
  uint64_t LiveRefs = 0;
  uint64_t JournalBytes = 0;
  uint64_t JournalHeadHash = 0;
  uint64_t JournalTailHash = 0;
  // Regions: entry blob, entry dir, 4x key table, 4x postings, time,
  // dedup, page-sum table — (offset, length) pairs.
  uint64_t Regions[13][2] = {};
  uint64_t TableHash = 0; ///< FNV of the page-sum table bytes.
};

constexpr size_t RegEntryBlob = 0, RegEntryDir = 1, RegKeyFirst = 2,
                 RegPostFirst = 6, RegTime = 10, RegDedup = 11,
                 RegPageSums = 12;

void putU32(std::vector<uint8_t> &B, uint32_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  B.insert(B.end(), P, P + 4);
}
void putU64(std::vector<uint8_t> &B, uint64_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  B.insert(B.end(), P, P + 8);
}
void putU16(std::vector<uint8_t> &B, uint16_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  B.insert(B.end(), P, P + 2);
}
void putStr(std::vector<uint8_t> &B, const std::string &S) {
  putU16(B, static_cast<uint16_t>(S.size()));
  B.insert(B.end(), S.begin(), S.end());
}

std::vector<uint8_t> serializeHeader(const HeaderFields &H) {
  std::vector<uint8_t> B;
  B.reserve(512);
  putU32(B, TbixMagic);
  putU32(B, TbixVersion);
  putU32(B, static_cast<uint32_t>(TbixPageSize));
  putU32(B, 0); // reserved
  putU64(B, H.FileBytes);
  putU64(B, H.EntryCount);
  putU64(B, H.NextId);
  putU64(B, H.LiveCount);
  putU64(B, H.LiveBytes);
  putU64(B, H.LiveRefs);
  putU64(B, H.JournalBytes);
  putU64(B, H.JournalHeadHash);
  putU64(B, H.JournalTailHash);
  for (const auto &R : H.Regions) {
    putU64(B, R[0]);
    putU64(B, R[1]);
  }
  putU64(B, H.TableHash);
  // Header self-hash, last field.
  putU64(B, fnv1a64(B.data(), B.size(), Fnv64ShortBasis));
  B.resize(TbixPageSize, 0);
  return B;
}

bool deserializeHeader(const uint8_t *P, size_t Len, HeaderFields &H,
                       std::string &Why) {
  if (Len < TbixPageSize) {
    Why = "short header";
    return false;
  }
  size_t Off = 0;
  auto getU32 = [&]() {
    uint32_t V;
    std::memcpy(&V, P + Off, 4);
    Off += 4;
    return V;
  };
  auto getU64 = [&]() {
    uint64_t V;
    std::memcpy(&V, P + Off, 8);
    Off += 8;
    return V;
  };
  if (getU32() != TbixMagic) {
    Why = "bad magic";
    return false;
  }
  if (getU32() != TbixVersion) {
    Why = "unsupported version";
    return false;
  }
  if (getU32() != TbixPageSize) {
    Why = "page size mismatch";
    return false;
  }
  (void)getU32();
  H.FileBytes = getU64();
  H.EntryCount = getU64();
  H.NextId = getU64();
  H.LiveCount = getU64();
  H.LiveBytes = getU64();
  H.LiveRefs = getU64();
  H.JournalBytes = getU64();
  H.JournalHeadHash = getU64();
  H.JournalTailHash = getU64();
  for (auto &R : H.Regions) {
    R[0] = getU64();
    R[1] = getU64();
  }
  H.TableHash = getU64();
  uint64_t Stored;
  std::memcpy(&Stored, P + Off, 8);
  if (fnv1a64(P, Off, Fnv64ShortBasis) != Stored) {
    Why = "header checksum mismatch";
    return false;
  }
  return true;
}

/// Where serializeEntry puts the two fields the tail can change in a
/// checkpoint entry, and the length of the fixed-width prefix holding
/// them; the carry-forward writer patches them in place.
constexpr size_t RecRefCountOff = 70, RecDeadOff = 78, RecFixedBytes = 79;

/// Serializes one entry record into \p B (appended).
void serializeEntry(const SnapStoreEntry &E, std::vector<uint8_t> &B) {
  putU64(B, E.Id);
  putU32(B, E.Shard);
  putU64(B, E.Offset);
  putU64(B, E.ImageBytes);
  putU64(B, E.PayloadHash);
  putU64(B, E.Fingerprint);
  putU64(B, E.MachineId);
  putU64(B, E.Pid);
  putU64(B, E.Timestamp);
  putU16(B, E.Reason);
  putU64(B, E.RefCount);
  B.push_back(E.Dead ? 1 : 0);
  putStr(B, E.Kind);
  putStr(B, E.MachineName);
  putStr(B, E.ProcessName);
  putU16(B, static_cast<uint16_t>(E.ModuleNames.size()));
  for (size_t I = 0; I < E.ModuleNames.size(); ++I) {
    putStr(B, E.ModuleNames[I]);
    putU64(B, E.ModuleKeys[I]);
    B.push_back(E.ModuleInstrumented[I] ? 1 : 0);
  }
  putU16(B, static_cast<uint16_t>(E.Markers.size()));
  for (const std::string &M : E.Markers)
    putStr(B, M);
}

bool deserializeEntry(const uint8_t *P, size_t Len, SnapStoreEntry &E) {
  size_t Off = 0;
  auto need = [&](size_t N) { return Off + N <= Len; };
  auto getU64 = [&](uint64_t &V) {
    if (!need(8))
      return false;
    std::memcpy(&V, P + Off, 8);
    Off += 8;
    return true;
  };
  auto getU32 = [&](uint32_t &V) {
    if (!need(4))
      return false;
    std::memcpy(&V, P + Off, 4);
    Off += 4;
    return true;
  };
  auto getU16 = [&](uint16_t &V) {
    if (!need(2))
      return false;
    std::memcpy(&V, P + Off, 2);
    Off += 2;
    return true;
  };
  auto getU8 = [&](uint8_t &V) {
    if (!need(1))
      return false;
    V = P[Off++];
    return true;
  };
  auto getStr = [&](std::string &S) {
    uint16_t N;
    if (!getU16(N) || !need(N))
      return false;
    S.assign(reinterpret_cast<const char *>(P + Off), N);
    Off += N;
    return true;
  };
  uint8_t Flag = 0;
  uint16_t NMods = 0, NMarks = 0;
  if (!getU64(E.Id) || !getU32(E.Shard) || !getU64(E.Offset) ||
      !getU64(E.ImageBytes) || !getU64(E.PayloadHash) ||
      !getU64(E.Fingerprint) || !getU64(E.MachineId) || !getU64(E.Pid) ||
      !getU64(E.Timestamp) || !getU16(E.Reason) || !getU64(E.RefCount) ||
      !getU8(Flag) || !getStr(E.Kind) || !getStr(E.MachineName) ||
      !getStr(E.ProcessName) || !getU16(NMods))
    return false;
  E.Dead = Flag != 0;
  E.ModuleNames.resize(NMods);
  E.ModuleKeys.resize(NMods);
  E.ModuleInstrumented.resize(NMods);
  for (uint16_t I = 0; I < NMods; ++I) {
    if (!getStr(E.ModuleNames[I]) || !getU64(E.ModuleKeys[I]) ||
        !getU8(E.ModuleInstrumented[I]))
      return false;
  }
  if (!getU16(NMarks))
    return false;
  E.Markers.resize(NMarks);
  for (uint16_t I = 0; I < NMarks; ++I)
    if (!getStr(E.Markers[I]))
      return false;
  return Off == Len;
}

/// Streams bytes to a file while hashing each TbixPageSize-aligned page
/// as it completes; finished pages go out in batches. Page 0 (the
/// header) is written as zeros first and patched at the end; its hash
/// lives inside the header itself, not in the table.
class PageStreamWriter {
public:
  explicit PageStreamWriter(std::FILE *F)
      : F(F), Buf(BatchPages * TbixPageSize) {}

  bool write(const void *Data, size_t Len) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    while (Len) {
      size_t Room = TbixPageSize - Fill;
      size_t N = Len < Room ? Len : Room;
      std::memcpy(Buf.data() + Batched * TbixPageSize + Fill, P, N);
      Fill += N;
      P += N;
      Len -= N;
      Written += N;
      if (Fill == TbixPageSize && !endPage())
        return false;
    }
    return true;
  }

  /// Writes \p N whole pages whose checksums are already known — pages
  /// copied verbatim from a verified checkpoint — without copying or
  /// hashing them again. Requires pageFill() == 0.
  bool writePages(const uint8_t *P, uint64_t N, const uint64_t *PageSums) {
    if (!flush())
      return false;
    Sums.insert(Sums.end(), PageSums, PageSums + N);
    PageIdx += N;
    size_t Bytes = static_cast<size_t>(N * TbixPageSize);
    Written += Bytes;
    return std::fwrite(P, 1, Bytes, F) == Bytes;
  }

  /// Pads the current page with zeros up to the page boundary.
  bool padToPage() {
    if (Fill == 0)
      return true;
    static const uint8_t Zeros[256] = {};
    while (Fill != 0) {
      size_t N = TbixPageSize - Fill;
      if (N > sizeof(Zeros))
        N = sizeof(Zeros);
      if (!write(Zeros, N))
        return false;
    }
    return true;
  }

  /// Writes out the finished pages still batched.
  bool flush() {
    size_t Bytes = Batched * TbixPageSize;
    Batched = 0;
    return Bytes == 0 || std::fwrite(Buf.data(), 1, Bytes, F) == Bytes;
  }

  uint64_t offset() const { return Written; }
  /// Bytes already in the current (unfinished) page.
  size_t pageFill() const { return Fill; }
  const std::vector<uint64_t> &pageSums() const { return Sums; }

private:
  static constexpr size_t BatchPages = 64;

  bool endPage() {
    // Page 0 is the header placeholder — not in the table.
    if (PageIdx > 0)
      Sums.push_back(pageSum64(Buf.data() + Batched * TbixPageSize));
    ++PageIdx;
    Fill = 0;
    return ++Batched < BatchPages || flush();
  }

  std::FILE *F;
  std::vector<uint8_t> Buf; ///< Batched finished pages, then the open one.
  size_t Batched = 0;
  size_t Fill = 0;
  uint64_t PageIdx = 0;
  uint64_t Written = 0;
  std::vector<uint64_t> Sums;
};

/// Sequential reader over an existing checkpoint: the carry-forward
/// writer's only view of it. It reads through a handle of its own,
/// never through the query page cache, and checks each data page
/// against the page-sum table as the page enters its buffer, so no byte
/// reaches the writer unverified.
class CheckpointSource {
public:
  ~CheckpointSource() {
    if (F)
      std::fclose(F);
  }

  /// Opens \p Path and loads its page-sum table (\p TableOff, \p TableLen),
  /// checked against the header's \p TableHash.
  bool open(const std::string &Path, uint64_t TableOff, uint64_t TableLen,
            uint64_t TableHash) {
    F = std::fopen(Path.c_str(), "rb");
    if (!F)
      return fail("cannot reopen " + Path);
    if (TableOff % TbixPageSize != 0 || TableOff == 0 ||
        TableLen != (TableOff / TbixPageSize - 1) * 8)
      return fail("page-sum table length mismatch");
    Sums.resize(static_cast<size_t>(TableLen / 8));
    if (std::fseek(F, static_cast<long>(TableOff), SEEK_SET) != 0 ||
        std::fread(Sums.data(), 8, Sums.size(), F) != Sums.size())
      return fail("cannot read page-sum table");
    if (fnv1a64(Sums.data(), Sums.size() * 8, Fnv64ShortBasis) !=
        TableHash)
      return fail("page-sum table hash mismatch");
    Buf.resize(ChunkPages * TbixPageSize);
    return true;
  }

  /// Moves the read position to file offset \p Off.
  void seek(uint64_t Off) { Pos = Off; }

  bool read(void *Out, size_t Len) {
    uint8_t *Dst = static_cast<uint8_t *>(Out);
    while (Len) {
      if (!buffered())
        return false;
      size_t N = static_cast<size_t>(
          std::min<uint64_t>(BufOff + BufLen - Pos, Len));
      std::memcpy(Dst, Buf.data() + (Pos - BufOff), N);
      Dst += N;
      Pos += N;
      Len -= N;
    }
    return true;
  }

  /// Copies \p Len bytes to \p W. A whole page that starts a page in both
  /// files is byte-identical to a verified old page, so it goes out
  /// without a copy and keeps its old checksum.
  bool copyTo(PageStreamWriter &W, uint64_t Len) {
    while (Len) {
      if (!buffered())
        return false;
      const uint8_t *P = Buf.data() + (Pos - BufOff);
      uint64_t N = std::min<uint64_t>(BufOff + BufLen - Pos, Len);
      bool Ok;
      if (W.pageFill() == 0 && Pos % TbixPageSize == 0 &&
          N >= TbixPageSize) {
        N -= N % TbixPageSize;
        Ok = W.writePages(P, N / TbixPageSize,
                          &Sums[Pos / TbixPageSize - 1]);
      } else {
        // Up to W's next page start, where the fast path may resume.
        N = std::min<uint64_t>(N, TbixPageSize - W.pageFill());
        Ok = W.write(P, static_cast<size_t>(N));
      }
      if (!Ok)
        return false;
      Pos += N;
      Len -= N;
    }
    return true;
  }

  /// Calls \p Fn(rows, count) over the \p Rows fixed-size rows starting at
  /// \p Off, a batch at a time. Stops (false) when \p Fn does.
  template <typename BatchFn>
  bool forEachBatch(uint64_t Off, uint64_t Rows, size_t RowBytes,
                    BatchFn &&Fn) {
    std::vector<uint8_t> Batch(1024 * RowBytes);
    seek(Off);
    while (Rows) {
      uint64_t N = std::min<uint64_t>(Rows, 1024);
      if (!read(Batch.data(), static_cast<size_t>(N * RowBytes)) ||
          !Fn(Batch.data(), N))
        return false;
      Rows -= N;
    }
    return true;
  }

  /// Why the last read failed ("" when the fault was the sink's).
  const std::string &error() const { return Why; }

private:
  static constexpr uint64_t ChunkPages = 64;

  bool fail(const std::string &W) {
    Why = W;
    return false;
  }

  /// Makes the buffer hold Pos, loading and verifying the chunk of pages
  /// around it when it does not.
  bool buffered() {
    if (Pos >= BufOff && Pos < BufOff + BufLen)
      return true;
    uint64_t Page = Pos / TbixPageSize;
    if (Page == 0 || Page > Sums.size())
      return fail("read outside the data pages");
    uint64_t N = std::min<uint64_t>(Sums.size() + 1 - Page, ChunkPages);
    if (FilePos != Page * TbixPageSize &&
        std::fseek(F, static_cast<long>(Page * TbixPageSize), SEEK_SET) != 0)
      return fail("seek failed");
    size_t Want = static_cast<size_t>(N * TbixPageSize);
    BufLen = 0; // Valid only once every page in it has verified.
    if (std::fread(Buf.data(), 1, Want, F) != Want)
      return fail("cannot read data pages");
    FilePos = (Page + N) * TbixPageSize;
    for (uint64_t I = 0; I < N; ++I)
      if (pageSum64(Buf.data() + I * TbixPageSize) != Sums[Page + I - 1])
        return fail("page " + std::to_string(Page + I) + " checksum mismatch");
    BufOff = Page * TbixPageSize;
    BufLen = Want;
    return true;
  }

  std::FILE *F = nullptr;
  std::vector<uint64_t> Sums; ///< Sums[P - 1] checks data page P.
  std::vector<uint8_t> Buf;
  uint64_t BufOff = 0, BufLen = 0;
  uint64_t Pos = 0;     ///< Next byte the caller reads.
  uint64_t FilePos = 0; ///< Where the handle stands.
  std::string Why;
};

/// Writes the rows of an old sorted table (\p Rows rows at \p Off, read
/// through \p Src) merged with the sorted \p Tail rows, dropping each old
/// row \p Drop names. Runs of old rows between tail rows go out in one
/// piece. A row's bytes are its RowT's.
template <typename RowT, typename LessFn, typename DropFn>
bool mergeTable(CheckpointSource &Src, PageStreamWriter &W, uint64_t Off,
                uint64_t Rows, const std::vector<RowT> &Tail, LessFn Less,
                DropFn Drop) {
  size_t TI = 0;
  auto putTail = [&](const RowT &R) {
    while (TI < Tail.size() && Less(Tail[TI], R))
      if (!W.write(&Tail[TI++], sizeof(RowT)))
        return false;
    return true;
  };
  bool Ok = Src.forEachBatch(
      Off, Rows, sizeof(RowT), [&](const uint8_t *P, uint64_t N) {
        uint64_t Run = 0; // First old row not yet written.
        auto putRun = [&](uint64_t End) {
          bool Wrote = End == Run || W.write(P + Run * sizeof(RowT),
                                             (End - Run) * sizeof(RowT));
          Run = End;
          return Wrote;
        };
        for (uint64_t I = 0; I < N; ++I) {
          RowT R;
          std::memcpy(&R, P + I * sizeof(RowT), sizeof(RowT));
          if (TI < Tail.size() && Less(Tail[TI], R) &&
              !(putRun(I) && putTail(R)))
            return false;
          if (Drop(R)) {
            if (!putRun(I))
              return false;
            Run = I + 1;
          }
        }
        return putRun(N);
      });
  for (; Ok && TI < Tail.size(); ++TI)
    Ok = W.write(&Tail[TI], sizeof(RowT));
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

bool traceback::writePagedIndex(const std::string &Path,
                                const PagedIndexHeaderInfo &HI,
                                const PagedIndexReader *Old,
                                const std::set<uint64_t> &DeadCk,
                                const std::map<uint64_t, uint64_t> &RefDeltaCk,
                                const std::vector<SnapStoreEntry> &Tail,
                                std::string &Error) {
  using Region = PagedIndexReader::Region;
  // The old checkpoint's regions; all empty when there is none, so the
  // same merge below writes a first checkpoint from the tail alone.
  Region OBlob, ODir, OKeys[4], OPost[4], OTime, ODedup;
  uint64_t OldN = 0, OldNextId = 1;
  CheckpointSource Src;
  if (Old) {
    if (!Src.open(Old->Path, Old->PageSums.Off, Old->PageSums.Len,
                  Old->TableHash)) {
      Error = "checkpoint carry-forward: " + Src.error();
      return false;
    }
    OBlob = Old->EntryBlob;
    ODir = Old->EntryDir;
    for (unsigned D = 0; D < 4; ++D) {
      OKeys[D] = Old->KeyTables[D];
      OPost[D] = Old->Postings[D];
    }
    OTime = Old->Time;
    ODedup = Old->Dedup;
    OldN = Old->EntryCount;
    OldNextId = Old->HdrNextId;
  } else if (!DeadCk.empty() || !RefDeltaCk.empty()) {
    Error = "checkpoint deltas without a checkpoint";
    return false;
  }

  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    Error = "cannot create checkpoint: " + Tmp;
    return false;
  }

  HeaderFields H;
  H.NextId = HI.NextId;
  H.LiveCount = HI.LiveCount;
  H.LiveBytes = HI.LiveBytes;
  H.LiveRefs = HI.LiveRefs;
  H.JournalBytes = HI.JournalBytes;
  H.JournalHeadHash = HI.JournalHeadHash;
  H.JournalTailHash = HI.JournalTailHash;
  H.EntryCount = OldN + Tail.size();

  PageStreamWriter W(F);
  std::string Why; // A structural fault in the old checkpoint.
  auto bad = [&](const std::string &What) {
    Why = What;
    return false;
  };

  auto writeRegions = [&]() -> bool {
    // Placeholder header page; patched after everything else is laid out.
    {
      std::vector<uint8_t> Zero(TbixPageSize, 0);
      if (!W.write(Zero.data(), Zero.size()))
        return false;
    }
    if (ODir.Len != OldN * 20)
      return bad("entry directory length mismatch");

    // --- Patch sites: the records whose refcount or Dead flag the tail
    // changed, located by one pass over the old directory. -------------
    struct Patch {
      uint64_t Id = 0, Delta = 0, At = 0;
      bool Kill = false;
    };
    std::vector<Patch> Patches;
    {
      auto R = RefDeltaCk.begin();
      auto K = DeadCk.begin();
      while (R != RefDeltaCk.end() || K != DeadCk.end()) {
        Patch P;
        P.Id = K == DeadCk.end() ? R->first
               : R == RefDeltaCk.end() ? *K
                                       : std::min(R->first, *K);
        if (R != RefDeltaCk.end() && R->first == P.Id)
          P.Delta = (R++)->second;
        if (K != DeadCk.end() && *K == P.Id) {
          P.Kill = true;
          ++K;
        }
        Patches.push_back(P);
      }
    }
    size_t Found = 0;
    bool Scanned =
        Patches.empty() ||
        Src.forEachBatch(ODir.Off, OldN, 20, [&](const uint8_t *P, uint64_t N) {
          for (const uint8_t *Row = P; Row != P + N * 20; Row += 20) {
            uint64_t Id, Off;
            uint32_t Len;
            std::memcpy(&Id, Row, 8);
            if (Id != Patches[Found].Id)
              continue;
            std::memcpy(&Off, Row + 8, 8);
            std::memcpy(&Len, Row + 16, 4);
            if (Len < RecFixedBytes || Off + Len > OBlob.Len)
              return bad("entry " + std::to_string(Id) + " out of the blob");
            Patches[Found].At = Off;
            if (++Found == Patches.size())
              return false; // Stop at the last patch.
          }
          return true;
        });
    if (Found < Patches.size())
      return Scanned ? bad("entry " + std::to_string(Patches[Found].Id) +
                           " is not in the checkpoint")
                     : false;

    // --- Entry blob: old bytes with the patches applied, then the tail's
    // records, whose side tables accumulate as they encode. -------------
    H.Regions[RegEntryBlob][0] = W.offset();
    Src.seek(OBlob.Off);
    uint64_t Done = 0;
    for (const Patch &P : Patches) {
      uint64_t At = P.At + RecRefCountOff;
      if (At < Done)
        return bad("entry directory out of order");
      uint8_t Field[RecFixedBytes - RecRefCountOff]; // RefCount, Dead.
      if (!Src.copyTo(W, At - Done) || !Src.read(Field, sizeof(Field)))
        return false;
      uint64_t Refs;
      std::memcpy(&Refs, Field, 8);
      Refs += P.Delta;
      std::memcpy(Field, &Refs, 8);
      if (P.Kill)
        Field[RecDeadOff - RecRefCountOff] = 1;
      if (!W.write(Field, sizeof(Field)))
        return false;
      Done = At + sizeof(Field);
    }
    if (!Src.copyTo(W, OBlob.Len - Done))
      return false;

    struct DirRow {
      uint64_t Id, Off;
      uint32_t Len;
    };
    std::vector<DirRow> Dir;
    Dir.reserve(Tail.size());
    // std::map keys the tables deterministically (sorted), which makes the
    // checkpoint byte-reproducible for equal store state.
    std::map<uint64_t, std::vector<uint64_t>> Post[4];
    struct TimeRow {
      uint64_t Ts, Id;
    };
    std::vector<TimeRow> Time;
    std::vector<TbixDedupRow> Dedup;
    std::vector<uint8_t> Rec;
    uint64_t MinId = OldNextId;
    for (const SnapStoreEntry &E : Tail) {
      if (E.Id < MinId)
        return bad("tail id " + std::to_string(E.Id) + " out of order");
      MinId = E.Id + 1;
      Rec.clear();
      serializeEntry(E, Rec);
      Dir.push_back({E.Id, W.offset() - H.Regions[RegEntryBlob][0],
                     static_cast<uint32_t>(Rec.size())});
      for (size_t I = 0; I < E.ModuleKeys.size(); ++I) {
        Post[0][E.ModuleKeys[I]].push_back(E.Id);
        uint64_t NameKey = signatureHash(E.ModuleNames[I]);
        if (NameKey != E.ModuleKeys[I])
          Post[0][NameKey].push_back(E.Id);
      }
      Post[1][signatureHash(E.Kind)].push_back(E.Id);
      Post[2][E.Fingerprint].push_back(E.Id);
      Post[3][E.MachineId].push_back(E.Id);
      uint64_t MachKey = signatureHash(E.MachineName);
      if (MachKey != E.MachineId)
        Post[3][MachKey].push_back(E.Id);
      Time.push_back({E.Timestamp, E.Id});
      if (!E.Dead)
        Dedup.push_back({E.Fingerprint, E.PayloadHash, E.Id});
      if (!W.write(Rec.data(), Rec.size()))
        return false;
    }
    H.Regions[RegEntryBlob][1] = W.offset() - H.Regions[RegEntryBlob][0];

    // --- Entry directory ---------------------------------------------------
    H.Regions[RegEntryDir][0] = W.offset();
    Src.seek(ODir.Off);
    if (!Src.copyTo(W, ODir.Len))
      return false;
    for (const DirRow &R : Dir) {
      uint8_t Row[20];
      std::memcpy(Row, &R.Id, 8);
      std::memcpy(Row + 8, &R.Off, 8);
      std::memcpy(Row + 16, &R.Len, 4);
      if (!W.write(Row, sizeof(Row)))
        return false;
    }
    H.Regions[RegEntryDir][1] = W.offset() - H.Regions[RegEntryDir][0];

    // --- Key tables + postings per dimension: the union of the old and
    // the tail's keys; per key the old ids (all smaller) then the tail's.
    for (unsigned D = 0; D < 4; ++D) {
      if (OKeys[D].Len % 24 != 0)
        return bad("key table length mismatch");
      std::vector<std::pair<uint64_t, uint64_t>> OldKeys; // (key, count)
      OldKeys.reserve(static_cast<size_t>(OKeys[D].Len / 24));
      uint64_t Cum = 0;
      if (!Src.forEachBatch(
              OKeys[D].Off, OKeys[D].Len / 24, 24,
              [&](const uint8_t *P, uint64_t N) {
                for (const uint8_t *Row = P; Row != P + N * 24; Row += 24) {
                  uint64_t Key, Off, Count;
                  std::memcpy(&Key, Row, 8);
                  std::memcpy(&Off, Row + 8, 8);
                  std::memcpy(&Count, Row + 16, 8);
                  if (Off != Cum ||
                      (!OldKeys.empty() && Key <= OldKeys.back().first))
                    return bad("key table out of order");
                  Cum += Count;
                  OldKeys.push_back({Key, Count});
                }
                return true;
              }))
        return false;
      if (Cum * 8 != OPost[D].Len)
        return bad("posting region length mismatch");

      // Walks the merged key order, calling Fn(key, old (key, count) row
      // or null, tail ids or null) once per key.
      auto mergeKeys = [&](auto &&Fn) {
        size_t OI = 0;
        auto TI = Post[D].begin();
        while (OI < OldKeys.size() || TI != Post[D].end()) {
          bool TakeOld = OI < OldKeys.size() &&
                         (TI == Post[D].end() || OldKeys[OI].first <= TI->first);
          bool TakeTail = TI != Post[D].end() &&
                          (OI == OldKeys.size() || TI->first <= OldKeys[OI].first);
          uint64_t Key = TakeOld ? OldKeys[OI].first : TI->first;
          const std::pair<uint64_t, uint64_t> *O =
              TakeOld ? &OldKeys[OI++] : nullptr;
          const std::vector<uint64_t> *T = TakeTail ? &(TI++)->second : nullptr;
          if (!Fn(Key, O, T))
            return false;
        }
        return true;
      };

      H.Regions[RegKeyFirst + D][0] = W.offset();
      Cum = 0;
      if (!mergeKeys([&](uint64_t Key, const std::pair<uint64_t, uint64_t> *O,
                         const std::vector<uint64_t> *T) {
            uint64_t Count = (O ? O->second : 0) + (T ? T->size() : 0);
            uint8_t Row[24];
            std::memcpy(Row, &Key, 8);
            std::memcpy(Row + 8, &Cum, 8); // id-offset within the postings
            std::memcpy(Row + 16, &Count, 8);
            Cum += Count;
            return W.write(Row, sizeof(Row));
          }))
        return false;
      H.Regions[RegKeyFirst + D][1] =
          W.offset() - H.Regions[RegKeyFirst + D][0];

      H.Regions[RegPostFirst + D][0] = W.offset();
      Src.seek(OPost[D].Off);
      if (!mergeKeys([&](uint64_t, const std::pair<uint64_t, uint64_t> *O,
                         const std::vector<uint64_t> *T) {
            return (!O || Src.copyTo(W, O->second * 8)) &&
                   (!T || W.write(T->data(), T->size() * 8));
          }))
        return false;
      H.Regions[RegPostFirst + D][1] =
          W.offset() - H.Regions[RegPostFirst + D][0];
    }

    // --- Time table: (ts, id) pairs are unique, so merging the two sorted
    // runs gives exactly the order a full sort would. ---------------------
    if (OTime.Len % 16 != 0)
      return bad("time table length mismatch");
    auto timeLess = [](const TimeRow &A, const TimeRow &B) {
      return std::tie(A.Ts, A.Id) < std::tie(B.Ts, B.Id);
    };
    std::sort(Time.begin(), Time.end(), timeLess);
    H.Regions[RegTime][0] = W.offset();
    if (!mergeTable(Src, W, OTime.Off, OTime.Len / 16, Time, timeLess,
                    [](const TimeRow &) { return false; }))
      return false;
    H.Regions[RegTime][1] = W.offset() - H.Regions[RegTime][0];

    // --- Dedup table: live rows only, in (Fp, Ph, Id) order — a total
    // order, so the bytes never rest on how a sort breaks ties. ----------
    if (ODedup.Len % 24 != 0)
      return bad("dedup table length mismatch");
    auto rowLess = [](const TbixDedupRow &A, const TbixDedupRow &B) {
      return std::tie(A.Fp, A.Ph, A.Id) < std::tie(B.Fp, B.Ph, B.Id);
    };
    std::sort(Dedup.begin(), Dedup.end(), rowLess);
    H.Regions[RegDedup][0] = W.offset();
    if (!mergeTable(Src, W, ODedup.Off, ODedup.Len / 24, Dedup, rowLess,
                    [&](const TbixDedupRow &R) { return DeadCk.count(R.Id); }))
      return false;
    H.Regions[RegDedup][1] = W.offset() - H.Regions[RegDedup][0];

    // --- Page-sum table (page-aligned so every data page is full) --------
    if (!W.padToPage())
      return false;
    H.Regions[RegPageSums][0] = W.offset();
    std::vector<uint64_t> Sums = W.pageSums();
    if (!Sums.empty() && !W.write(Sums.data(), Sums.size() * 8))
      return false;
    H.Regions[RegPageSums][1] = W.offset() - H.Regions[RegPageSums][0];
    H.TableHash = fnv1a64(Sums.data(), Sums.size() * 8, Fnv64ShortBasis);
    // Flush the table's trailing partial page; FileBytes is the padded,
    // page-aligned size the reader checks against.
    if (!W.padToPage() || !W.flush())
      return false;
    H.FileBytes = W.offset();

    // Patch the header page in place.
    std::vector<uint8_t> HdrBytes = serializeHeader(H);
    return std::fseek(F, 0, SEEK_SET) == 0 &&
           std::fwrite(HdrBytes.data(), 1, HdrBytes.size(), F) ==
               HdrBytes.size();
  };

  bool Ok = writeRegions();
  Ok = std::fflush(F) == 0 && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok) {
    // Remove the old file first instead of renaming over it: on ext4 a
    // rename over an existing file forces writeback of the new one, and
    // each later release of a written-back checkpoint then waits on the
    // disk, which can cost more than the whole write. A crash between
    // the two steps leaves only the .tmp, and the next open replays the
    // journal: the checkpoint is an accelerator, validated at open.
    std::remove(Path.c_str());
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  }
  if (!Ok) {
    std::remove(Tmp.c_str());
    if (!Why.empty())
      Error = "checkpoint carry-forward: " + Why;
    else if (!Src.error().empty())
      Error = "checkpoint carry-forward: " + Src.error();
    else
      Error = "checkpoint write failed: " + Path;
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

PagedIndexReader::~PagedIndexReader() {
  if (File)
    std::fclose(static_cast<std::FILE *>(File));
  if (PI.Resident && CachedBytes)
    PI.Resident->add(-static_cast<int64_t>(CachedBytes));
}

std::unique_ptr<PagedIndexReader>
PagedIndexReader::open(const std::string &Path, const std::string &JournalPath,
                       size_t CacheBytes, const PageCacheInstruments &Inst,
                       std::string &Why) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Why = NoCheckpoint;
    return nullptr;
  }
  auto fail = [&](const std::string &W) {
    Why = W;
    std::fclose(F);
    return nullptr;
  };

  uint8_t HdrPage[TbixPageSize];
  if (std::fread(HdrPage, 1, sizeof(HdrPage), F) != sizeof(HdrPage))
    return fail("short checkpoint header");
  HeaderFields H;
  if (!deserializeHeader(HdrPage, sizeof(HdrPage), H, Why)) {
    std::fclose(F);
    return nullptr;
  }

  if (std::fseek(F, 0, SEEK_END) != 0)
    return fail("seek failed");
  uint64_t FileBytes = static_cast<uint64_t>(std::ftell(F));
  if (FileBytes != H.FileBytes)
    return fail("checkpoint size mismatch (torn tail?)");
  for (const auto &R : H.Regions)
    if (R[0] + R[1] > FileBytes || R[0] + R[1] < R[0])
      return fail("region out of bounds");

  // Page-sum table: read, hash-check, then stream every data page once
  // verifying its checksum. The streaming pass holds one chunk at a time
  // — validation leaves nothing resident.
  uint64_t TableOff = H.Regions[RegPageSums][0];
  uint64_t TableLen = H.Regions[RegPageSums][1];
  if (TableOff % TbixPageSize != 0)
    return fail("misaligned page-sum table");
  uint64_t DataPages = TableOff / TbixPageSize; // pages 0..DataPages-1
  if (DataPages == 0 || TableLen != (DataPages - 1) * 8)
    return fail("page-sum table length mismatch");
  std::vector<uint64_t> Sums(DataPages - 1);
  if (std::fseek(F, static_cast<long>(TableOff), SEEK_SET) != 0 ||
      std::fread(Sums.data(), 8, Sums.size(), F) != Sums.size())
    return fail("cannot read page-sum table");
  if (fnv1a64(Sums.data(), Sums.size() * 8, Fnv64ShortBasis) !=
      H.TableHash)
    return fail("page-sum table hash mismatch");
  {
    if (std::fseek(F, TbixPageSize, SEEK_SET) != 0)
      return fail("seek failed");
    std::vector<uint8_t> Chunk(64 * TbixPageSize);
    uint64_t Page = 1;
    while (Page < DataPages) {
      uint64_t N = DataPages - Page;
      if (N > 64)
        N = 64;
      size_t Want = static_cast<size_t>(N) * TbixPageSize;
      if (std::fread(Chunk.data(), 1, Want, F) != Want)
        return fail("cannot read data pages");
      for (uint64_t I = 0; I < N; ++I, ++Page)
        if (pageSum64(Chunk.data() + I * TbixPageSize) != Sums[Page - 1])
          return fail("page " + std::to_string(Page) + " checksum mismatch");
    }
  }

  // Journal coverage: the checkpoint describes the journal's first
  // JournalBytes bytes. The journal is append-only between compactions,
  // so hashing the prefix's first and last 4 KiB windows catches a
  // truncated, rewritten, or swapped journal without re-reading the
  // whole prefix.
  {
    std::FILE *J = std::fopen(JournalPath.c_str(), "rb");
    uint64_t JBytes = 0;
    if (J) {
      std::fseek(J, 0, SEEK_END);
      JBytes = static_cast<uint64_t>(std::ftell(J));
    }
    if (JBytes < H.JournalBytes) {
      if (J)
        std::fclose(J);
      return fail("journal shorter than checkpoint coverage");
    }
    uint8_t Win[TbixPageSize];
    auto hashAt = [&](uint64_t Off, size_t Len, uint64_t &Out) {
      if (std::fseek(J, static_cast<long>(Off), SEEK_SET) != 0 ||
          std::fread(Win, 1, Len, J) != Len)
        return false;
      Out = fnv1a64(Win, Len, Fnv64ShortBasis);
      return true;
    };
    if (H.JournalBytes > 0) {
      size_t HeadLen = static_cast<size_t>(
          H.JournalBytes < TbixPageSize ? H.JournalBytes : TbixPageSize);
      size_t TailLen = HeadLen;
      uint64_t HeadHash = 0, TailHash = 0;
      bool HOk = J && hashAt(0, HeadLen, HeadHash) &&
                 hashAt(H.JournalBytes - TailLen, TailLen, TailHash);
      if (J)
        std::fclose(J);
      if (!HOk)
        return fail("cannot read journal coverage windows");
      if (HeadHash != H.JournalHeadHash || TailHash != H.JournalTailHash)
        return fail("journal prefix hash mismatch (stale checkpoint)");
    } else if (J) {
      std::fclose(J);
    }
  }

  auto R = std::unique_ptr<PagedIndexReader>(new PagedIndexReader());
  R->Path = Path;
  R->File = F;
  R->FileBytes = FileBytes;
  R->EntryCount = H.EntryCount;
  R->HdrNextId = H.NextId;
  R->HdrLiveCount = H.LiveCount;
  R->HdrLiveBytes = H.LiveBytes;
  R->HdrLiveRefs = H.LiveRefs;
  R->HdrJournalBytes = H.JournalBytes;
  R->EntryBlob = {H.Regions[RegEntryBlob][0], H.Regions[RegEntryBlob][1]};
  R->EntryDir = {H.Regions[RegEntryDir][0], H.Regions[RegEntryDir][1]};
  for (unsigned D = 0; D < 4; ++D) {
    R->KeyTables[D] = {H.Regions[RegKeyFirst + D][0],
                       H.Regions[RegKeyFirst + D][1]};
    R->Postings[D] = {H.Regions[RegPostFirst + D][0],
                      H.Regions[RegPostFirst + D][1]};
  }
  R->Time = {H.Regions[RegTime][0], H.Regions[RegTime][1]};
  R->Dedup = {H.Regions[RegDedup][0], H.Regions[RegDedup][1]};
  R->PageSums = {TableOff, TableLen};
  R->TableHash = H.TableHash;
  R->TimeRows = R->Time.Len / 16;
  R->DedupRows = R->Dedup.Len / 24;
  // At least two pages of cache, whatever the configured cap, or nothing
  // would ever fit a record spanning a page boundary.
  R->CacheCap = CacheBytes < 2 * TbixPageSize ? 2 * TbixPageSize : CacheBytes;
  R->PI = Inst;
  return R;
}

const uint8_t *PagedIndexReader::pageLocked(uint64_t PageIdx) const {
  auto It = Pages.find(PageIdx);
  if (It != Pages.end()) {
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    if (PI.Hits)
      PI.Hits->add();
    return It->second.Bytes.data();
  }
  if (PI.Misses)
    PI.Misses->add();
  uint64_t Off = PageIdx * TbixPageSize;
  size_t Len = TbixPageSize;
  if (Off + Len > FileBytes)
    Len = static_cast<size_t>(FileBytes - Off);
  Page P;
  P.Bytes.resize(TbixPageSize, 0);
  std::FILE *F = static_cast<std::FILE *>(File);
  if (std::fseek(F, static_cast<long>(Off), SEEK_SET) != 0 ||
      std::fread(P.Bytes.data(), 1, Len, F) != Len)
    return nullptr; // Validated at open; only an I/O fault lands here.
  while (CachedBytes + TbixPageSize > CacheCap && !Lru.empty()) {
    uint64_t Victim = Lru.back();
    Lru.pop_back();
    Pages.erase(Victim);
    CachedBytes -= TbixPageSize;
    if (PI.Evictions)
      PI.Evictions->add();
    if (PI.Resident)
      PI.Resident->add(-static_cast<int64_t>(TbixPageSize));
  }
  Lru.push_front(PageIdx);
  P.LruIt = Lru.begin();
  auto Ins = Pages.emplace(PageIdx, std::move(P));
  CachedBytes += TbixPageSize;
  if (PI.Resident)
    PI.Resident->add(static_cast<int64_t>(TbixPageSize));
  return Ins.first->second.Bytes.data();
}

bool PagedIndexReader::read(uint64_t Off, size_t Len, void *Out) const {
  if (Off + Len > FileBytes)
    return false;
  std::lock_guard<std::mutex> Lock(CacheMutex);
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  while (Len) {
    uint64_t PageIdx = Off / TbixPageSize;
    size_t InPage = static_cast<size_t>(Off % TbixPageSize);
    size_t N = TbixPageSize - InPage;
    if (N > Len)
      N = Len;
    const uint8_t *P = pageLocked(PageIdx);
    if (!P)
      return false;
    std::memcpy(Dst, P + InPage, N);
    Dst += N;
    Off += N;
    Len -= N;
  }
  return true;
}

uint64_t PagedIndexReader::readU64(uint64_t Off) const {
  uint64_t V = 0;
  read(Off, 8, &V);
  return V;
}

bool PagedIndexReader::entryByIndex(uint64_t Idx, SnapStoreEntry &Out) const {
  if (Idx >= EntryCount)
    return false;
  uint8_t Row[20];
  if (!read(EntryDir.Off + Idx * 20, 20, Row))
    return false;
  uint64_t BlobOff;
  uint32_t Len;
  std::memcpy(&BlobOff, Row + 8, 8);
  std::memcpy(&Len, Row + 16, 4);
  if (BlobOff + Len > EntryBlob.Len)
    return false;
  std::vector<uint8_t> Rec(Len);
  return read(EntryBlob.Off + BlobOff, Len, Rec.data()) &&
         deserializeEntry(Rec.data(), Rec.size(), Out);
}

bool PagedIndexReader::entryById(uint64_t Id, SnapStoreEntry &Out) const {
  uint64_t Lo = 0, Hi = EntryCount;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidId = readU64(EntryDir.Off + Mid * 20);
    if (MidId == Id)
      return entryByIndex(Mid, Out);
    if (MidId < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

bool PagedIndexReader::hasEntry(uint64_t Id) const {
  uint64_t Lo = 0, Hi = EntryCount;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidId = readU64(EntryDir.Off + Mid * 20);
    if (MidId == Id)
      return true;
    if (MidId < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

const PagedIndexReader::Region &
PagedIndexReader::keyTable(TbixDim D) const {
  return KeyTables[static_cast<unsigned>(D)];
}
const PagedIndexReader::Region &
PagedIndexReader::postingRegion(TbixDim D) const {
  return Postings[static_cast<unsigned>(D)];
}

bool PagedIndexReader::findPosting(TbixDim D, uint64_t Key,
                                   PostingRef &Out) const {
  const Region &T = keyTable(D);
  uint64_t Rows = T.Len / 24;
  uint64_t Lo = 0, Hi = Rows;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidKey = readU64(T.Off + Mid * 24);
    if (MidKey == Key) {
      uint64_t IdOff = readU64(T.Off + Mid * 24 + 8);
      Out.Off = postingRegion(D).Off + IdOff * 8;
      Out.Count = readU64(T.Off + Mid * 24 + 16);
      return true;
    }
    if (MidKey < Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

uint64_t PagedIndexReader::postingIdAt(const PostingRef &P, uint64_t I) const {
  return readU64(P.Off + I * 8);
}

bool PagedIndexReader::postingContains(const PostingRef &P,
                                       uint64_t Id) const {
  uint64_t Lo = 0, Hi = P.Count;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t V = postingIdAt(P, Mid);
    if (V == Id)
      return true;
    if (V < Id)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

void PagedIndexReader::timeAt(uint64_t I, uint64_t &Ts, uint64_t &Id) const {
  uint8_t Row[16];
  if (!read(Time.Off + I * 16, 16, Row)) {
    Ts = Id = 0;
    return;
  }
  std::memcpy(&Ts, Row, 8);
  std::memcpy(&Id, Row + 8, 8);
}

bool PagedIndexReader::findDedup(uint64_t Fp, uint64_t Ph,
                                 uint64_t &IdOut) const {
  uint64_t Lo = 0, Hi = DedupRows;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    uint64_t MidFp = readU64(Dedup.Off + Mid * 24);
    uint64_t MidPh = readU64(Dedup.Off + Mid * 24 + 8);
    if (MidFp == Fp && MidPh == Ph) {
      IdOut = readU64(Dedup.Off + Mid * 24 + 16);
      return true;
    }
    if (MidFp < Fp || (MidFp == Fp && MidPh < Ph))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

size_t PagedIndexReader::residentBytes() const {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return CachedBytes;
}
