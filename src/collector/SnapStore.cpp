//===- collector/SnapStore.cpp - Indexed, queryable snap store ------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "collector/SnapStore.h"

#include "collector/PagedIndex.h"
#include "distributed/SnapArchive.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "triage/Signature.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace traceback;

//===----------------------------------------------------------------------===//
// TBIX v1 journal encoding
//===----------------------------------------------------------------------===//
//
// Line-oriented, append-only, replayed at open:
//
//   TBIX v1
//   add id=7 shard=2 off=8 bytes=312 ph=<hex16> fp=<hex16> kind=...
//       machine=... mid=3 proc=... pid=9 ts=4400 reason=1 refs=1
//       mod=<name>:<hex16> ... mark=<marker> ...   (one line per add)
//   ref 7
//   evict 7
//
// Values are percent-escaped (space, '%', ':', '=', control bytes) so one
// token is always one field. A final line without its trailing newline is
// a torn tail from a crashed collector and is dropped; malformed bytes
// before that are corruption and fail open().
//
// The journal is the complete history of the store — the TBIX v2
// checkpoint (collector/PagedIndex.h) never truncates it, it only records
// how many journal bytes it folds in. A paged open seeks past that prefix
// and replays just the tail; any doubt about the checkpoint falls back to
// replaying the whole journal from byte zero.

static const char *IndexHeader = "TBIX v1";

static std::string escapeValue(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  static const char *Hex = "0123456789abcdef";
  for (unsigned char C : V) {
    if (C <= 0x20 || C == '%' || C == ':' || C == '=' || C == 0x7F) {
      Out.push_back('%');
      Out.push_back(Hex[C >> 4]);
      Out.push_back(Hex[C & 15]);
    } else {
      Out.push_back(static_cast<char>(C));
    }
  }
  return Out;
}

static int hexNibble(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

static bool unescapeValue(const std::string &V, std::string &Out) {
  Out.clear();
  Out.reserve(V.size());
  for (size_t I = 0; I < V.size(); ++I) {
    if (V[I] != '%') {
      Out.push_back(V[I]);
      continue;
    }
    if (I + 2 >= V.size())
      return false;
    int Hi = hexNibble(V[I + 1]), Lo = hexNibble(V[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out.push_back(static_cast<char>((Hi << 4) | Lo));
    I += 2;
  }
  return true;
}

static bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

static bool parseHex64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 16)
    return false;
  Out = 0;
  for (char C : S) {
    int N = hexNibble(C);
    if (N < 0)
      return false;
    Out = (Out << 4) | static_cast<uint64_t>(N);
  }
  return true;
}

static std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// FNV-1a 64 over raw bytes — the payload-dedup hash. Same seed as
/// triage's signatureHash, which hashes text.
static uint64_t payloadHash(const std::vector<uint8_t> &Bytes) {
  return fnv1a64(Bytes.data(), Bytes.size(), Fnv64ShortBasis);
}

//===----------------------------------------------------------------------===//
// SnapQuery
//===----------------------------------------------------------------------===//

SnapQuery &SnapQuery::setModule(const std::string &NameOrHex) {
  HasModule = true;
  uint64_t Key = 0;
  if (NameOrHex.size() == 16 && parseHex64(NameOrHex, Key))
    ModuleKey = Key; // A checksum key spelled as 16 hex digits.
  else
    ModuleKey = signatureHash(NameOrHex);
  return *this;
}

SnapQuery &SnapQuery::setMachine(const std::string &NameOrId) {
  HasMachine = true;
  uint64_t Id = 0;
  if (parseU64(NameOrId, Id))
    MachineKey = Id; // A raw transport machine id.
  else
    MachineKey = signatureHash(NameOrId);
  return *this;
}

//===----------------------------------------------------------------------===//
// SnapStore
//===----------------------------------------------------------------------===//

struct SnapStore::Shard {
  SnapArchiveWriter W;
};

SnapStore::SnapStore() = default;
SnapStore::~SnapStore() { close(); }

std::string SnapStore::shardPath(uint32_t Index) const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "/shard-%02u.tbar", Index);
  return Dir + Buf;
}

std::string SnapStore::indexPath() const { return Dir + "/index.tbx"; }

std::string SnapStore::checkpointPath() const { return Dir + "/index.tbx2"; }

/// Microseconds elapsed since \p T0.
static uint64_t usSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

bool SnapStore::open(const std::string &Directory, const SnapStoreOptions &O,
                     std::string &Error) {
  close();
  auto T0 = std::chrono::steady_clock::now();
  Dir = Directory;
  Opt = O;
  if (Opt.Shards == 0)
    Opt.Shards = 1;

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create store directory: " + Dir;
    return false;
  }

  MetricsRegistry &R = Opt.Metrics ? *Opt.Metrics : MetricsRegistry::global();
  SM.Appends = &R.counter("collector.store.appends");
  SM.DedupHits = &R.counter("collector.store.dedup_hits");
  SM.Evictions = &R.counter("collector.store.evictions");
  SM.Queries = &R.counter("collector.store.queries");
  SM.PointReads = &R.counter("collector.store.point_reads");
  SM.CheckpointFallbacks =
      &R.counter("collector.store.degraded.checkpoint_fallback");
  SM.CheckpointWriteFailures =
      &R.counter("collector.store.degraded.checkpoint_write");
  SM.EntriesEncoded = &R.counter("collector.store.checkpoint.entries_encoded");
  SM.CheckpointUs = &R.histogram("collector.store.checkpoint_us");
  SM.OpenUs = &R.histogram("collector.store.open_us");
  SM.LiveEntriesG = &R.gauge("collector.store.live_entries");
  SM.LiveBytesG = &R.gauge("collector.store.live_bytes");

  // Try the TBIX v2 checkpoint first. Any validation failure returns
  // null and we fall back to replaying the whole journal — the journal
  // is the complete history, so the fallback is always correct. A
  // missing file is not a fallback; a rejected one is counted.
  CkFallback.clear();
  if (Opt.Paged) {
    PageCacheInstruments PCI;
    PCI.Hits = &R.counter("collector.store.page.hits");
    PCI.Misses = &R.counter("collector.store.page.misses");
    PCI.Evictions = &R.counter("collector.store.page.evictions");
    PCI.Resident = &R.gauge("store.bytes_resident");
    std::string Why;
    Ck = PagedIndexReader::open(checkpointPath(), indexPath(),
                                Opt.PageCacheBytes, PCI, Why);
    if (Ck) {
      NextId = Ck->nextId();
      LiveCount = static_cast<size_t>(Ck->liveCount());
      LiveBytes = Ck->liveBytes();
      CkRefsLive = Ck->liveRefs();
    } else if (Why != PagedIndexReader::NoCheckpoint) {
      CkFallback = Why;
      SM.CheckpointFallbacks->add();
    }
  }

  if (!replayIndex(Error))
    return false;

  // An open that could not use a checkpoint is dirty by definition: a
  // close() should leave one behind for the next open. A paged open is
  // clean until something is journaled.
  Dirty = Ck == nullptr;

  if (!Opt.ReadOnly) {
    for (unsigned I = 0; I < Opt.Shards; ++I) {
      auto S = std::make_unique<Shard>();
      if (!S->W.open(shardPath(I))) {
        Error = "cannot open shard: " + shardPath(I);
        close();
        return false;
      }
      Shards.push_back(std::move(S));
    }
    std::FILE *J = std::fopen(indexPath().c_str(), "ab");
    if (!J) {
      Error = "cannot open index journal: " + indexPath();
      close();
      return false;
    }
    Journal = J;
    // A fresh store starts with the format header line.
    if (std::ftell(J) == 0 &&
        std::fprintf(J, "%s\n", IndexHeader) < 0) {
      Error = "cannot write index header";
      close();
      return false;
    }
  }

  Open = true;
  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  SM.OpenUs->observe(usSince(T0));
  return true;
}

void SnapStore::close() {
  if (Open && !Opt.ReadOnly && Dirty) {
    if (Journal)
      std::fflush(static_cast<std::FILE *>(Journal));
    writeCheckpoint();
  }
  if (Journal) {
    std::fclose(static_cast<std::FILE *>(Journal));
    Journal = nullptr;
  }
  Shards.clear(); // Writer destructors close the files.
  Entries.clear();
  ById.clear();
  ByModule.clear();
  ByKind.clear();
  ByFingerprint.clear();
  ByMachine.clear();
  ByTime.clear();
  DedupByKey.clear();
  Ck.reset();
  DeadCk.clear();
  RefDeltaCk.clear();
  CkRefsLive = 0;
  CkEntryCache.clear();
  CkEntryCacheOrder.clear();
  Dirty = false;
  NextId = 1;
  LiveCount = 0;
  LiveBytes = 0;
  DedupHitCount = 0;
  EvictionCount = 0;
  Open = false;
}

/// Splits \p Line into space-separated tokens.
static void tokenize(const std::string &Line, std::vector<std::string> &Out) {
  Out.clear();
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    size_t Start = I;
    while (I < Line.size() && Line[I] != ' ')
      ++I;
    if (I > Start)
      Out.push_back(Line.substr(Start, I - Start));
  }
}

bool SnapStore::replayIndex(std::string &Error) {
  std::FILE *F = std::fopen(indexPath().c_str(), "rb");
  if (!F)
    return true; // A store with no index yet is a valid empty store.

  // Stream lines through a fixed read buffer — the journal is replayed
  // without ever holding the whole file, matching the satellite's
  // stream-don't-read-all discipline.
  std::string Line;
  std::vector<std::string> Tok;
  char Buf[4096];
  bool SawHeader = false, SawNewline = false, Bad = false;
  size_t LineNo = 0;

  // A paged open replays only the tail appended after the checkpoint.
  // The covered prefix ends at a line boundary (the checkpoint hashed a
  // fully flushed journal), so seeking lands at the start of a record.
  if (Ck) {
    if (std::fseek(F, static_cast<long>(Ck->journalBytes()), SEEK_SET) != 0) {
      std::fclose(F);
      Error = "cannot seek to index journal tail: " + indexPath();
      return false;
    }
    SawHeader = true;
  }

  auto handleLine = [&]() -> bool {
    ++LineNo;
    if (!SawHeader) {
      if (Line != IndexHeader)
        return false;
      SawHeader = true;
      return true;
    }
    tokenize(Line, Tok);
    if (Tok.empty())
      return true;
    if (Tok[0] == "ref" || Tok[0] == "evict") {
      uint64_t Id = 0;
      if (Tok.size() != 2 || !parseU64(Tok[1], Id))
        return false;
      auto It = ById.find(Id);
      if (It == ById.end()) {
        // Not a tail entry — a checkpoint entry the tail mutated.
        if (Ck)
          return Tok[0] == "ref" ? ckApplyRef(Id) : ckApplyEvict(Id);
        return false;
      }
      SnapStoreEntry &E = Entries[It->second];
      if (Tok[0] == "ref")
        ++E.RefCount;
      else
        markDead(E);
      return true;
    }
    if (Tok[0] != "add")
      return false;
    SnapStoreEntry E;
    E.RefCount = 1;
    for (size_t I = 1; I < Tok.size(); ++I) {
      size_t Eq = Tok[I].find('=');
      if (Eq == std::string::npos)
        return false;
      std::string Key = Tok[I].substr(0, Eq);
      std::string Raw = Tok[I].substr(Eq + 1), Val;
      if (!unescapeValue(Raw, Val))
        return false;
      uint64_t U = 0;
      if (Key == "id") {
        if (!parseU64(Val, E.Id))
          return false;
      } else if (Key == "shard") {
        if (!parseU64(Val, U))
          return false;
        E.Shard = static_cast<uint32_t>(U);
      } else if (Key == "off") {
        if (!parseU64(Val, E.Offset))
          return false;
      } else if (Key == "bytes") {
        if (!parseU64(Val, E.ImageBytes))
          return false;
      } else if (Key == "ph") {
        if (!parseHex64(Val, E.PayloadHash))
          return false;
      } else if (Key == "fp") {
        if (!parseHex64(Val, E.Fingerprint))
          return false;
      } else if (Key == "kind") {
        E.Kind = Val;
      } else if (Key == "machine") {
        E.MachineName = Val;
      } else if (Key == "mid") {
        if (!parseU64(Val, E.MachineId))
          return false;
      } else if (Key == "proc") {
        E.ProcessName = Val;
      } else if (Key == "pid") {
        if (!parseU64(Val, E.Pid))
          return false;
      } else if (Key == "ts") {
        if (!parseU64(Val, E.Timestamp))
          return false;
      } else if (Key == "reason") {
        if (!parseU64(Val, U))
          return false;
        E.Reason = static_cast<uint16_t>(U);
      } else if (Key == "refs") {
        if (!parseU64(Val, E.RefCount) || E.RefCount == 0)
          return false;
      } else if (Key == "mod") {
        // <name>:<hex16 checksum>:<0|1 instrumented>. Split the *raw*
        // token — escaping turned any ':' inside the name into %3a, so
        // raw colons are always the separators.
        size_t C2 = Raw.rfind(':');
        if (C2 == std::string::npos || C2 == 0)
          return false;
        size_t C1 = Raw.rfind(':', C2 - 1);
        std::string Name;
        if (C1 == std::string::npos ||
            !parseHex64(Raw.substr(C1 + 1, C2 - C1 - 1), U) ||
            !unescapeValue(Raw.substr(0, C1), Name))
          return false;
        const std::string Flag = Raw.substr(C2 + 1);
        if (Flag != "0" && Flag != "1")
          return false;
        E.ModuleNames.push_back(std::move(Name));
        E.ModuleKeys.push_back(U);
        E.ModuleInstrumented.push_back(Flag == "1");
      } else if (Key == "mark") {
        E.Markers.push_back(Val);
      } else {
        // Unknown key: tolerated for forward compatibility.
      }
    }
    if (E.Id == 0 || ById.count(E.Id))
      return false;
    if (Ck && (E.Id < Ck->nextId() || Ck->hasEntry(E.Id)))
      return false; // Tail ids must all exceed checkpoint ids.
    ById[E.Id] = Entries.size();
    Entries.push_back(std::move(E));
    indexEntry(Entries.back());
    if (Entries.back().Id >= NextId)
      NextId = Entries.back().Id + 1;
    return true;
  };

  for (;;) {
    size_t Got = std::fread(Buf, 1, sizeof(Buf), F);
    if (Got == 0)
      break;
    for (size_t I = 0; I < Got && !Bad; ++I) {
      if (Buf[I] == '\n') {
        SawNewline = true;
        if (!handleLine())
          Bad = true;
        Line.clear();
      } else {
        Line.push_back(Buf[I]);
      }
    }
    if (Bad)
      break;
  }
  std::fclose(F);
  if (Bad) {
    Error = "malformed index journal at line " + std::to_string(LineNo + 1) +
            ": " + indexPath();
    return false;
  }
  // A non-empty trailing fragment is a torn final line — dropped, like a
  // torn TBAR tail. But an index whose very first line never completed is
  // just an empty store.
  (void)SawNewline;
  return true;
}

bool SnapStore::journalLine(const std::string &Line) {
  if (!Journal)
    return false;
  std::FILE *J = static_cast<std::FILE *>(Journal);
  if (std::fwrite(Line.data(), 1, Line.size(), J) != Line.size() ||
      std::fputc('\n', J) == EOF || std::fflush(J) != 0)
    return false;
  Dirty = true;
  return true;
}

void SnapStore::indexEntry(const SnapStoreEntry &E) {
  for (size_t I = 0; I < E.ModuleKeys.size(); ++I) {
    ByModule[E.ModuleKeys[I]].push_back(E.Id);
    uint64_t NameKey = signatureHash(E.ModuleNames[I]);
    if (NameKey != E.ModuleKeys[I])
      ByModule[NameKey].push_back(E.Id);
  }
  ByKind[E.Kind].push_back(E.Id);
  ByFingerprint[E.Fingerprint].push_back(E.Id);
  ByMachine[E.MachineId].push_back(E.Id);
  uint64_t MachKey = signatureHash(E.MachineName);
  if (MachKey != E.MachineId)
    ByMachine[MachKey].push_back(E.Id);
  auto At = std::upper_bound(ByTime.begin(), ByTime.end(),
                             std::make_pair(E.Timestamp, E.Id));
  ByTime.insert(At, {E.Timestamp, E.Id});
  if (!E.Dead) {
    DedupByKey.insertOrAssign(DedupKey{E.Fingerprint, E.PayloadHash}, E.Id);
    ++LiveCount;
    LiveBytes += E.ImageBytes;
  }
}

void SnapStore::markDead(SnapStoreEntry &E) {
  if (E.Dead)
    return;
  E.Dead = true;
  --LiveCount;
  LiveBytes -= E.ImageBytes;
  dedupTombstone(E.Fingerprint, E.PayloadHash, E.Id);
}

void SnapStore::dedupTombstone(uint64_t Fp, uint64_t Ph, uint64_t DyingId) {
  DedupKey K{Fp, Ph};
  if (uint64_t *V = DedupByKey.find(K)) {
    if (*V == DyingId)
      *V = 0; // Tombstone: FlatMap has no erase; 0 is never a valid id.
    return;
  }
  // No tail mapping: the dying entry may still be reachable through the
  // checkpoint's dedup table. A tombstone in the tail map shadows it.
  if (Ck) {
    uint64_t CkId = 0;
    if (Ck->findDedup(Fp, Ph, CkId) && CkId == DyingId)
      DedupByKey.insertOrAssign(K, 0);
  }
}

void SnapStore::applyCkAdjust(SnapStoreEntry &E) const {
  auto It = RefDeltaCk.find(E.Id);
  if (It != RefDeltaCk.end())
    E.RefCount += It->second;
  if (DeadCk.count(E.Id))
    E.Dead = true;
}

bool SnapStore::readCkEntry(uint64_t Id, SnapStoreEntry &Out) const {
  if (!Ck || !Ck->entryById(Id, Out))
    return false;
  applyCkAdjust(Out);
  return true;
}

bool SnapStore::readCkEntryAt(uint64_t Idx, SnapStoreEntry &Out) const {
  if (!Ck || !Ck->entryByIndex(Idx, Out))
    return false;
  applyCkAdjust(Out);
  return true;
}

void SnapStore::ckMarkDead(const SnapStoreEntry &E) {
  if (E.Dead || DeadCk.count(E.Id))
    return;
  DeadCk.insert(E.Id);
  --LiveCount;
  LiveBytes -= E.ImageBytes;
  CkRefsLive -= E.RefCount; // E is adjusted: deltas already folded in.
  dedupTombstone(E.Fingerprint, E.PayloadHash, E.Id);
  CkEntryCache.erase(E.Id);
}

bool SnapStore::ckApplyRef(uint64_t Id) {
  SnapStoreEntry E;
  if (!readCkEntry(Id, E))
    return false;
  ++RefDeltaCk[Id];
  if (!E.Dead)
    ++CkRefsLive;
  CkEntryCache.erase(Id);
  return true;
}

bool SnapStore::ckApplyEvict(uint64_t Id) {
  SnapStoreEntry E;
  if (!readCkEntry(Id, E))
    return false;
  if (!E.Dead)
    ckMarkDead(E);
  return true;
}

size_t SnapStore::enforceRetention() {
  if (Opt.MaxBytes == 0 && Opt.MaxAge == 0)
    return 0;
  // The checkpoint's time table and the tail's ByTime are each sorted by
  // (timestamp, id); a two-pointer merge walks the union in exactly the
  // order the unpaged store would, so victims come out identical.
  uint64_t CkN = Ck ? Ck->timeCount() : 0;
  auto ckTime = [&](uint64_t I) {
    uint64_t Ts = 0, Id = 0;
    Ck->timeAt(I, Ts, Id);
    return std::make_pair(Ts, Id);
  };
  SnapStoreEntry Tmp;
  uint64_t NewestTs = 0;
  if (Opt.MaxAge != 0) {
    // Newest live timestamp anchors the age horizon; the newest end may
    // be dead, so walk backwards to the first live entry.
    size_t TI = ByTime.size();
    uint64_t CI = CkN;
    while (TI > 0 || CI > 0) {
      bool TakeTail = TI > 0 && (CI == 0 || ByTime[TI - 1] >= ckTime(CI - 1));
      if (TakeTail) {
        --TI;
        auto Slot = ById.find(ByTime[TI].second);
        if (Slot != ById.end() && !Entries[Slot->second].Dead) {
          NewestTs = ByTime[TI].first;
          break;
        }
      } else {
        --CI;
        auto P = ckTime(CI);
        if (readCkEntry(P.second, Tmp) && !Tmp.Dead) {
          NewestTs = P.first;
          break;
        }
      }
    }
  }
  size_t Evicted = 0;
  // Deterministic victim order: oldest timestamp first, lowest id on
  // ties — the merged (timestamp, id) order, front to back.
  size_t TI = 0;
  uint64_t CI = 0;
  while (TI < ByTime.size() || CI < CkN) {
    bool TakeTail = TI < ByTime.size() && (CI >= CkN || ByTime[TI] < ckTime(CI));
    std::pair<uint64_t, uint64_t> TsId = TakeTail ? ByTime[TI] : ckTime(CI);
    bool OverBytes = Opt.MaxBytes != 0 && LiveBytes > Opt.MaxBytes;
    bool OverAge = Opt.MaxAge != 0 && NewestTs > Opt.MaxAge &&
                   TsId.first < NewestTs - Opt.MaxAge;
    if (!OverBytes && !OverAge)
      break;
    if (TakeTail) {
      ++TI;
      auto Slot = ById.find(TsId.second);
      if (Slot == ById.end() || Entries[Slot->second].Dead)
        continue;
      SnapStoreEntry &E = Entries[Slot->second];
      markDead(E);
      journalLine("evict " + std::to_string(E.Id));
      ++Evicted;
    } else {
      ++CI;
      if (DeadCk.count(TsId.second) || !readCkEntry(TsId.second, Tmp) ||
          Tmp.Dead)
        continue;
      ckMarkDead(Tmp);
      journalLine("evict " + std::to_string(Tmp.Id));
      ++Evicted;
    }
  }
  if (Evicted) {
    EvictionCount += Evicted;
    SM.Evictions->add(Evicted);
  }
  return Evicted;
}

static std::string addRecord(const SnapStoreEntry &E) {
  std::string L = "add id=" + std::to_string(E.Id) +
                  " shard=" + std::to_string(E.Shard) +
                  " off=" + std::to_string(E.Offset) +
                  " bytes=" + std::to_string(E.ImageBytes) + " ph=" +
                  hex16(E.PayloadHash) + " fp=" + hex16(E.Fingerprint) +
                  " kind=" + escapeValue(E.Kind) +
                  " machine=" + escapeValue(E.MachineName) +
                  " mid=" + std::to_string(E.MachineId) +
                  " proc=" + escapeValue(E.ProcessName) +
                  " pid=" + std::to_string(E.Pid) +
                  " ts=" + std::to_string(E.Timestamp) +
                  " reason=" + std::to_string(E.Reason) +
                  " refs=" + std::to_string(E.RefCount);
  for (size_t I = 0; I < E.ModuleNames.size(); ++I)
    L += " mod=" + escapeValue(E.ModuleNames[I]) + ":" +
         hex16(E.ModuleKeys[I]) +
         (E.ModuleInstrumented[I] ? ":1" : ":0");
  for (const std::string &M : E.Markers)
    L += " mark=" + escapeValue(M);
  return L;
}

bool SnapStore::append(const std::vector<uint8_t> &Image,
                       uint64_t SrcMachineId, AppendResult &Out,
                       std::string *Error) {
  Out = AppendResult();
  if (!Open || Opt.ReadOnly) {
    if (Error)
      *Error = "store is not open for writing";
    return false;
  }

  SnapFile Header;
  if (!SnapFile::deserializeHeader(Image, Header)) {
    if (Error)
      *Error = "unparsable snap image";
    return false;
  }
  FaultSignature Sig = extractSignature(Header);

  uint64_t PH = payloadHash(Image);
  uint64_t FP = Sig.fingerprint();

  SM.Appends->add();

  // Dedup: same fingerprint + same payload bytes → refcount the entry we
  // already stored. The tail map answers first (a 0 tombstone means the
  // key's holder died — including a holder only the checkpoint's table
  // knows about); otherwise the checkpoint's dedup table is probed.
  DedupKey K{FP, PH};
  uint64_t HitId = 0;
  if (const uint64_t *V = DedupByKey.find(K)) {
    HitId = *V;
  } else if (Ck) {
    uint64_t CkId = 0;
    if (Ck->findDedup(FP, PH, CkId) && !DeadCk.count(CkId))
      HitId = CkId;
  }
  if (HitId != 0) {
    auto Slot = ById.find(HitId);
    if (Slot != ById.end()) {
      ++Entries[Slot->second].RefCount;
    } else {
      // A checkpoint entry: record the bump as a delta on top of it.
      ++RefDeltaCk[HitId];
      ++CkRefsLive;
      CkEntryCache.erase(HitId);
    }
    ++DedupHitCount;
    SM.DedupHits->add();
    if (!journalLine("ref " + std::to_string(HitId))) {
      if (Error)
        *Error = "index journal write failed";
      return false;
    }
    Out.Id = HitId;
    Out.Deduped = true;
    return true;
  }

  SnapStoreEntry E;
  E.Id = NextId++;
  E.Shard = static_cast<uint32_t>(PH % Opt.Shards);
  E.ImageBytes = Image.size();
  E.PayloadHash = PH;
  E.Fingerprint = FP;
  E.Kind = Sig.Kind;
  E.MachineName = Header.MachineName;
  E.MachineId = SrcMachineId;
  E.ProcessName = Header.ProcessName;
  E.Pid = Header.Pid;
  E.Timestamp = Header.Timestamp;
  E.Reason = static_cast<uint16_t>(Header.Reason);
  for (const SnapModuleInfo &M : Header.Modules) {
    E.ModuleNames.push_back(M.Name);
    E.ModuleKeys.push_back(M.Checksum.low64());
    E.ModuleInstrumented.push_back(M.Instrumented);
  }
  E.Markers = Sig.Markers;

  Shard &S = *Shards[E.Shard];
  E.Offset = S.W.tell();
  if (!S.W.append(Image) || !S.W.flush()) {
    if (Error)
      *Error = "shard append failed: " + shardPath(E.Shard);
    return false;
  }
  if (!journalLine(addRecord(E))) {
    if (Error)
      *Error = "index journal write failed";
    return false;
  }

  ById[E.Id] = Entries.size();
  Entries.push_back(std::move(E));
  indexEntry(Entries.back());
  Out.Id = Entries.back().Id;

  Out.Evicted = enforceRetention();
  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  return true;
}

bool SnapStore::appendSnap(const SnapFile &Snap, uint64_t SrcMachineId,
                           AppendResult &Out, std::string *Error) {
  return append(Snap.serialize(), SrcMachineId, Out, Error);
}

//===----------------------------------------------------------------------===//
// Query
//===----------------------------------------------------------------------===//

bool SnapStore::matches(const SnapStoreEntry &E, const SnapQuery &Q) {
  if (E.Dead)
    return false;
  if (Q.HasModule) {
    bool Any = false;
    for (size_t I = 0; I < E.ModuleKeys.size() && !Any; ++I)
      Any = E.ModuleKeys[I] == Q.ModuleKey ||
            signatureHash(E.ModuleNames[I]) == Q.ModuleKey;
    if (!Any)
      return false;
  }
  if (!Q.Kind.empty() && E.Kind != Q.Kind)
    return false;
  if (Q.HasFingerprint && E.Fingerprint != Q.Fingerprint)
    return false;
  if (Q.HasMachine && E.MachineId != Q.MachineKey &&
      signatureHash(E.MachineName) != Q.MachineKey)
    return false;
  if (E.Timestamp < Q.Since || E.Timestamp > Q.Until)
    return false;
  return true;
}

SnapStore::QueryPlan SnapStore::planQuery(const SnapQuery &Q) const {
  // A set predicate whose key was never indexed proves the result empty
  // for that half (checkpoint or tail). Candidate count = checkpoint
  // posting + tail posting; the smallest total wins, first dimension on
  // ties — the same deterministic choice order as the tail-only planner.
  static const std::vector<uint64_t> Empty;
  QueryPlan Best;
  uint64_t BestTotal = 0;
  auto offer = [&](bool HasCk, uint64_t CkOff, uint64_t CkCount,
                   const std::vector<uint64_t> *Tail) {
    uint64_t Total = CkCount + Tail->size();
    if (!Best.Planned || Total < BestTotal) {
      Best.Planned = true;
      Best.HasCkPost = HasCk;
      Best.CkPostOff = CkOff;
      Best.CkPostCount = CkCount;
      Best.Tail = Tail;
      BestTotal = Total;
    }
  };
  auto dim = [&](TbixDim D, uint64_t Key, const std::vector<uint64_t> *Tail) {
    bool HasCk = false;
    uint64_t Off = 0, Count = 0;
    if (Ck) {
      PagedIndexReader::PostingRef PR;
      if (Ck->findPosting(D, Key, PR)) {
        HasCk = true;
        Off = PR.Off;
        Count = PR.Count;
      }
    }
    offer(HasCk, Off, Count, Tail);
  };
  if (Q.HasFingerprint) {
    auto It = ByFingerprint.find(Q.Fingerprint);
    dim(TbixDim::Fingerprint, Q.Fingerprint,
        It == ByFingerprint.end() ? &Empty : &It->second);
  }
  if (Q.HasModule) {
    auto It = ByModule.find(Q.ModuleKey);
    dim(TbixDim::Module, Q.ModuleKey,
        It == ByModule.end() ? &Empty : &It->second);
  }
  if (Q.HasMachine) {
    auto It = ByMachine.find(Q.MachineKey);
    dim(TbixDim::Machine, Q.MachineKey,
        It == ByMachine.end() ? &Empty : &It->second);
  }
  if (!Q.Kind.empty()) {
    auto It = ByKind.find(Q.Kind);
    dim(TbixDim::Kind, signatureHash(Q.Kind),
        It == ByKind.end() ? &Empty : &It->second);
  }
  return Best;
}

SnapStore::Cursor SnapStore::query(const SnapQuery &Q) const {
  SM.Queries->add();
  Cursor C(*this, Q);
  QueryPlan P = planQuery(Q);
  if (P.Planned) {
    C.CkStage = P.HasCkPost;
    C.CkPosting = true;
    C.CkPostOff = P.CkPostOff;
    C.CkPostCount = P.CkPostCount;
    C.Posting = P.Tail;
  } else {
    C.CkStage = Ck != nullptr;
    C.Posting = nullptr;
  }
  return C;
}

SnapStore::Cursor SnapStore::scan(const SnapQuery &Q) const {
  SM.Queries->add();
  Cursor C(*this, Q);
  C.CkStage = Ck != nullptr;
  C.Posting = nullptr;
  return C;
}

std::vector<uint64_t> SnapStore::queryIds(const SnapQuery &Q,
                                          ThreadPool *Pool) const {
  SM.Queries->add();
  QueryPlan P = planQuery(Q);

  // Candidate ids, ascending: checkpoint ids all precede tail ids.
  std::vector<uint64_t> Cand;
  if (P.Planned) {
    Cand.reserve(P.CkPostCount + P.Tail->size());
    if (P.HasCkPost) {
      PagedIndexReader::PostingRef PR{P.CkPostOff, P.CkPostCount};
      for (uint64_t I = 0; I < P.CkPostCount; ++I)
        Cand.push_back(Ck->postingIdAt(PR, I));
    }
    Cand.insert(Cand.end(), P.Tail->begin(), P.Tail->end());
  } else {
    uint64_t CkN = Ck ? Ck->entryCount() : 0;
    Cand.reserve(CkN + Entries.size());
    for (uint64_t I = 0; I < CkN; ++I)
      Cand.push_back(Ck->entryIdAt(I));
    for (const SnapStoreEntry &E : Entries)
      Cand.push_back(E.Id);
  }

  // Shard the residual filter; per-chunk results concatenate in chunk
  // order, so the output is the candidate order regardless of how the
  // pool schedules the chunks.
  const size_t ChunkSize = 2048;
  size_t NChunks = (Cand.size() + ChunkSize - 1) / ChunkSize;
  std::vector<std::vector<uint64_t>> Parts(NChunks);
  parallelForIndex(Pool, NChunks, [&](size_t CI) {
    SnapStoreEntry Scratch;
    size_t Begin = CI * ChunkSize;
    size_t End = std::min(Begin + ChunkSize, Cand.size());
    std::vector<uint64_t> &Hits = Parts[CI];
    for (size_t I = Begin; I < End; ++I) {
      uint64_t Id = Cand[I];
      const SnapStoreEntry *E = nullptr;
      auto It = ById.find(Id);
      if (It != ById.end())
        E = &Entries[It->second];
      else if (readCkEntry(Id, Scratch))
        E = &Scratch;
      if (E && matches(*E, Q))
        Hits.push_back(Id);
    }
  });

  std::vector<uint64_t> Ids;
  for (const std::vector<uint64_t> &Part : Parts)
    Ids.insert(Ids.end(), Part.begin(), Part.end());
  if (Q.Top != 0 && Ids.size() > Q.Top)
    Ids.resize(Q.Top);
  return Ids;
}

SnapStore::Cursor SnapStore::query(const SnapQuery &Q, ThreadPool *Pool) const {
  Cursor C(*this, Q);
  C.UseOwned = true;
  C.Owned = queryIds(Q, Pool);
  return C;
}

const SnapStoreEntry *SnapStore::Cursor::next() {
  if (Q.Top != 0 && Returned >= Q.Top)
    return nullptr;
  if (UseOwned) {
    // Ids were pre-filtered by queryIds(); just resolve each to storage.
    while (OwnedPos < Owned.size()) {
      uint64_t Id = Owned[OwnedPos++];
      const SnapStoreEntry *E = nullptr;
      auto It = S.ById.find(Id);
      if (It != S.ById.end())
        E = &S.Entries[It->second];
      else if (S.readCkEntry(Id, Scratch))
        E = &Scratch;
      if (E) {
        ++Returned;
        return E;
      }
    }
    return nullptr;
  }
  while (CkStage) {
    bool Have = false;
    if (CkPosting) {
      if (CkPos >= CkPostCount) {
        CkStage = false;
        break;
      }
      PagedIndexReader::PostingRef PR{CkPostOff, CkPostCount};
      Have = S.readCkEntry(S.Ck->postingIdAt(PR, CkPos++), Scratch);
    } else {
      if (CkPos >= S.Ck->entryCount()) {
        CkStage = false;
        break;
      }
      Have = S.readCkEntryAt(CkPos++, Scratch);
    }
    if (Have && SnapStore::matches(Scratch, Q)) {
      ++Returned;
      return &Scratch;
    }
  }
  if (Posting) {
    while (Pos < Posting->size()) {
      const SnapStoreEntry *E = S.entry((*Posting)[Pos++]);
      if (E && SnapStore::matches(*E, Q)) {
        ++Returned;
        return E;
      }
    }
    return nullptr;
  }
  while (Pos < S.Entries.size()) {
    const SnapStoreEntry *E = &S.Entries[Pos++];
    if (SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  return nullptr;
}

SnapStore::TimeCursor SnapStore::timeQuery(const SnapQuery &Q) const {
  SM.Queries->add();
  return TimeCursor(*this, Q);
}

const SnapStoreEntry *SnapStore::TimeCursor::next() {
  if (Q.Top != 0 && Returned >= Q.Top)
    return nullptr;
  uint64_t CkN = S.Ck ? S.Ck->timeCount() : 0;
  while (CkPos < CkN || TailPos < S.ByTime.size()) {
    // Two-pointer merge of the checkpoint time table and the tail's
    // ByTime — both sorted by (timestamp, id), ids disjoint.
    bool TakeCk = false;
    uint64_t CTs = 0, CId = 0;
    if (CkPos < CkN) {
      S.Ck->timeAt(CkPos, CTs, CId);
      TakeCk = TailPos >= S.ByTime.size() ||
               std::make_pair(CTs, CId) < S.ByTime[TailPos];
    }
    const SnapStoreEntry *E = nullptr;
    if (TakeCk) {
      ++CkPos;
      if (S.readCkEntry(CId, Scratch))
        E = &Scratch;
    } else {
      uint64_t Id = S.ByTime[TailPos++].second;
      auto It = S.ById.find(Id);
      if (It != S.ById.end())
        E = &S.Entries[It->second];
    }
    if (E && SnapStore::matches(*E, Q)) {
      ++Returned;
      return E;
    }
  }
  return nullptr;
}

const SnapStoreEntry *SnapStore::entry(uint64_t Id) const {
  auto It = ById.find(Id);
  if (It != ById.end())
    return &Entries[It->second];
  if (!Ck)
    return nullptr;
  auto CIt = CkEntryCache.find(Id);
  if (CIt != CkEntryCache.end())
    return CIt->second.get();
  auto E = std::make_unique<SnapStoreEntry>();
  if (!readCkEntry(Id, *E))
    return nullptr;
  // Bounded FIFO: entry() pointers stay valid for ~64 further lookups.
  if (CkEntryCacheOrder.size() >= 64) {
    CkEntryCache.erase(CkEntryCacheOrder.front());
    CkEntryCacheOrder.erase(CkEntryCacheOrder.begin());
  }
  const SnapStoreEntry *Ret = E.get();
  CkEntryCacheOrder.push_back(Id);
  CkEntryCache[Id] = std::move(E);
  return Ret;
}

bool SnapStore::loadImage(const SnapStoreEntry &E,
                          std::vector<uint8_t> &Out) const {
  SM.PointReads->add();
  return SnapArchive::readImageAt(shardPath(E.Shard), E.Offset, E.ImageBytes,
                                  Out);
}

bool SnapStore::loadSnap(const SnapStoreEntry &E, SnapFile &Out) const {
  std::vector<uint8_t> Image;
  return loadImage(E, Image) && SnapFile::deserialize(Image, Out);
}

//===----------------------------------------------------------------------===//
// Compaction and checkpointing
//===----------------------------------------------------------------------===//

bool SnapStore::materializeFromCheckpoint(std::string *Error) {
  if (!Ck)
    return true;
  std::vector<SnapStoreEntry> All;
  All.reserve(static_cast<size_t>(Ck->entryCount()) + Entries.size());
  for (uint64_t I = 0, N = Ck->entryCount(); I < N; ++I) {
    SnapStoreEntry E;
    if (!readCkEntryAt(I, E)) {
      if (Error)
        *Error = "checkpoint entry read failed";
      return false;
    }
    All.push_back(std::move(E));
  }
  for (SnapStoreEntry &E : Entries)
    All.push_back(std::move(E));
  Entries = std::move(All);
  Ck.reset();
  DeadCk.clear();
  RefDeltaCk.clear();
  CkRefsLive = 0;
  CkEntryCache.clear();
  CkEntryCacheOrder.clear();
  ById.clear();
  ByModule.clear();
  ByKind.clear();
  ByFingerprint.clear();
  ByMachine.clear();
  ByTime.clear();
  DedupByKey.clear();
  LiveCount = 0;
  LiveBytes = 0;
  for (size_t I = 0; I < Entries.size(); ++I) {
    ById[Entries[I].Id] = I;
    indexEntry(Entries[I]);
  }
  return true;
}

bool SnapStore::writeCheckpoint() {
  if (Opt.ReadOnly)
    return false;
  auto T0 = std::chrono::steady_clock::now();
  PagedIndexHeaderInfo H;
  H.NextId = NextId;
  H.LiveCount = LiveCount;
  H.LiveBytes = LiveBytes;
  H.LiveRefs = totalRefs();

  // Journal coverage: the checkpoint names the journal prefix it folds
  // in — its length plus FNV windows over the first and last 4 KiB. A
  // journal that later shrinks or diverges (compact crash, truncation)
  // fails these checks at open and the checkpoint is ignored.
  bool JOk = false;
  if (std::FILE *J = std::fopen(indexPath().c_str(), "rb")) {
    JOk = std::fseek(J, 0, SEEK_END) == 0;
    long Sz = JOk ? std::ftell(J) : -1;
    JOk = JOk && Sz >= 0;
    if (JOk) {
      H.JournalBytes = static_cast<uint64_t>(Sz);
      size_t WLen =
          static_cast<size_t>(std::min<uint64_t>(H.JournalBytes, TbixPageSize));
      if (WLen) {
        std::vector<uint8_t> WBuf(WLen);
        JOk = std::fseek(J, 0, SEEK_SET) == 0 &&
              std::fread(WBuf.data(), 1, WLen, J) == WLen;
        if (JOk)
          H.JournalHeadHash =
              fnv1a64(WBuf.data(), WLen, Fnv64ShortBasis);
        if (JOk) {
          JOk = std::fseek(J, static_cast<long>(H.JournalBytes - WLen),
                           SEEK_SET) == 0 &&
                std::fread(WBuf.data(), 1, WLen, J) == WLen;
          if (JOk)
            H.JournalTailHash =
                fnv1a64(WBuf.data(), WLen, Fnv64ShortBasis);
        }
      }
    }
    std::fclose(J);
  }

  // The old checkpoint (if this open used one) is carried forward; only
  // the tail's entries are encoded.
  std::string Why;
  bool Ok = JOk && writePagedIndex(checkpointPath(), H, Ck.get(), DeadCk,
                                   RefDeltaCk, Entries, Why);
  if (!JOk)
    Why = "cannot read index journal coverage: " + indexPath();
  if (Ok) {
    CkWriteFailure.clear();
    SM.EntriesEncoded->add(Entries.size());
  } else {
    // A failed write leaves no checkpoint: the next open replays the
    // journal, which is always correct.
    std::remove(checkpointPath().c_str());
    CkWriteFailure = Why;
    SM.CheckpointWriteFailures->add();
  }
  SM.CheckpointUs->observe(usSince(T0));
  return Ok;
}

bool SnapStore::compact(std::string *Error) {
  if (!Open || Opt.ReadOnly) {
    if (Error)
      *Error = "store is not open for writing";
    return false;
  }

  // Compaction is the O(n) maintenance pass: fold the checkpoint into
  // memory first so the rewrite below sees plain in-memory state.
  if (Ck && !materializeFromCheckpoint(Error))
    return false;
  // The journal is about to be replaced; any existing checkpoint goes
  // stale either way.
  Dirty = true;

  // Quiesce the writers so the rewrite reads fully-flushed shards.
  for (auto &S : Shards)
    S->W.close();

  // Rewrite each shard with only the live entries, in id order (Entries
  // is ascending by id), into a temp file swapped in atomically. Live
  // state in = identical bytes out, whatever dead entries sat between.
  bool Ok = true;
  std::vector<std::pair<uint64_t, uint64_t>> NewPlacement; // id -> offset
  for (unsigned SI = 0; SI < Opt.Shards && Ok; ++SI) {
    std::string Old = shardPath(SI), Tmp = Old + ".tmp";
    std::remove(Tmp.c_str());
    SnapArchiveWriter W;
    Ok = W.open(Tmp);
    for (const SnapStoreEntry &E : Entries) {
      if (!Ok)
        break;
      if (E.Dead || E.Shard != SI)
        continue;
      std::vector<uint8_t> Image;
      Ok = SnapArchive::readImageAt(Old, E.Offset, E.ImageBytes, Image);
      if (Ok) {
        NewPlacement.push_back({E.Id, W.tell()});
        Ok = W.append(Image);
      }
    }
    Ok = W.close() && Ok;
    if (Ok)
      Ok = std::rename(Tmp.c_str(), Old.c_str()) == 0;
  }
  if (!Ok) {
    if (Error)
      *Error = "shard rewrite failed";
    // Reopen writers on the (possibly partially rewritten but always
    // internally consistent) shards so the store stays usable.
  }

  if (Ok) {
    for (const auto &IdOff : NewPlacement) {
      auto Slot = ById.find(IdOff.first);
      if (Slot != ById.end())
        Entries[Slot->second].Offset = IdOff.second;
    }

    // Drop dead entries from memory and rebuild the derived indexes.
    std::vector<SnapStoreEntry> Live;
    Live.reserve(LiveCount);
    for (SnapStoreEntry &E : Entries)
      if (!E.Dead)
        Live.push_back(std::move(E));
    Entries = std::move(Live);
    ById.clear();
    ByModule.clear();
    ByKind.clear();
    ByFingerprint.clear();
    ByMachine.clear();
    ByTime.clear();
    DedupByKey.clear();
    LiveCount = 0;
    LiveBytes = 0;
    for (size_t I = 0; I < Entries.size(); ++I) {
      ById[Entries[I].Id] = I;
      indexEntry(Entries[I]);
    }

    // Replace the journal with a clean snapshot of the live state.
    if (Journal) {
      std::fclose(static_cast<std::FILE *>(Journal));
      Journal = nullptr;
    }
    std::string Tmp = indexPath() + ".tmp";
    std::FILE *J = std::fopen(Tmp.c_str(), "wb");
    Ok = J != nullptr;
    if (Ok) {
      Ok = std::fprintf(J, "%s\n", IndexHeader) >= 0;
      for (const SnapStoreEntry &E : Entries) {
        if (!Ok)
          break;
        std::string L = addRecord(E);
        Ok = std::fwrite(L.data(), 1, L.size(), J) == L.size() &&
             std::fputc('\n', J) != EOF;
      }
      Ok = std::fclose(J) == 0 && Ok;
    }
    if (Ok)
      Ok = std::rename(Tmp.c_str(), indexPath().c_str()) == 0;
    if (!Ok && Error)
      *Error = "index snapshot rewrite failed";
  }

  // Reattach the appenders (journal in append mode picks up the snapshot).
  for (unsigned SI = 0; SI < Opt.Shards; ++SI)
    if (!Shards[SI]->W.open(shardPath(SI)))
      Ok = false;
  if (!Journal)
    Journal = std::fopen(indexPath().c_str(), "ab");
  if (!Journal)
    Ok = false;

  // A fresh checkpoint over the compacted journal; failure just leaves
  // the store dirty so close() retries (the checkpoint is an
  // accelerator — a paged open without one falls back to replay).
  if (Ok && writeCheckpoint())
    Dirty = false;

  SM.LiveEntriesG->set(static_cast<int64_t>(LiveCount));
  SM.LiveBytesG->set(static_cast<int64_t>(LiveBytes));
  return Ok;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

size_t SnapStore::totalEntries() const {
  return (Ck ? static_cast<size_t>(Ck->entryCount()) : 0) + Entries.size();
}

uint64_t SnapStore::totalRefs() const {
  uint64_t Sum = CkRefsLive;
  for (const SnapStoreEntry &E : Entries)
    if (!E.Dead)
      Sum += E.RefCount;
  return Sum;
}

size_t SnapStore::pageCacheResidentBytes() const {
  return Ck ? Ck->residentBytes() : 0;
}
