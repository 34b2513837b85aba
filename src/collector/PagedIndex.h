//===- collector/PagedIndex.h - TBIX v2 paged index checkpoint --*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TBIX v2 checkpoint: a binary, page-structured snapshot of a snap
/// store's index that makes open O(tail) instead of O(history). The v1
/// line-oriented journal (`index.tbx`) remains the crash-consistent
/// write-ahead record of everything that ever happened to the store; the
/// checkpoint (`index.tbx2`) is a pure accelerator written at close()
/// and compact() time; close() carries the previous checkpoint forward
/// and encodes only the entries appended since (see writePagedIndex).
/// Opening a store with a valid checkpoint loads a 4 KiB header,
/// verifies every page's checksum with one sequential streaming pass
/// (no decode, no resident state), and then replays only the journal
/// bytes appended after the checkpoint. A
/// corrupt, torn, or stale checkpoint is simply ignored — open degrades
/// to full journal replay, never to wrong results.
///
/// File layout (all integers host-endian, fixed width):
///
///   page 0        header: magic "TBX2", version, page size, file size,
///                 entry/live/ref counts, next id, journal coverage
///                 (byte length + FNV of the covered prefix's first and
///                 last 4 KiB), one (offset, length) pair per region,
///                 checksum-table location/hash, header FNV.
///   entry blob    entry records back to back, ascending id.
///   entry dir     (id, blob offset, length) triples, ascending id —
///                 binary-searchable through the page cache.
///   key tables    per dimension (module / kind-hash / fingerprint /
///    + postings   machine): sorted (key, posting offset, count) rows,
///                 then the posting ids (ascending entry id) per key.
///   time table    (timestamp, id) pairs sorted ascending — retention
///                 walks and the fan-in time cursor.
///   dedup table   (fingerprint, payload hash, id) rows in that order —
///                 the append path's dedup probe, O(log n) page reads.
///   page sums     one 64-bit word-wise checksum per data page (pages
///                 1..tableStart-1); the table itself is covered by an
///                 FNV hash in the header.
///
/// Readers never materialize a region: every access goes through a
/// bounded LRU page cache (instrumented as store.page.{hits,misses,
/// evictions} and the store.bytes_resident gauge), so resident memory
/// is flat in store size.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_COLLECTOR_PAGEDINDEX_H
#define TRACEBACK_COLLECTOR_PAGEDINDEX_H

#include "collector/SnapStore.h"
#include "support/Metrics.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace traceback {

/// The checkpoint's fixed page size.
constexpr size_t TbixPageSize = 4096;

/// Posting dimensions a checkpoint indexes (matches SnapStore's posting
/// maps; Kind keys are signatureHash(kind) — the residual predicate
/// re-checks the exact string, so a hash collision only widens the
/// candidate list, never the result).
enum class TbixDim : unsigned { Module = 0, Kind = 1, Fingerprint = 2,
                                Machine = 3 };

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Everything a checkpoint records beyond the entries themselves.
struct PagedIndexHeaderInfo {
  uint64_t NextId = 1;
  uint64_t LiveCount = 0;
  uint64_t LiveBytes = 0;
  uint64_t LiveRefs = 0;     ///< Sum of live entries' refcounts.
  uint64_t JournalBytes = 0; ///< v1 journal length this checkpoint covers.
  uint64_t JournalHeadHash = 0; ///< FNV of the prefix's first 4 KiB.
  uint64_t JournalTailHash = 0; ///< FNV of the prefix's last 4 KiB.
};

/// One dedup-table row: the live (fingerprint, payload hash) -> id
/// mapping exactly as the store's in-memory probe would answer it. At
/// most one live entry exists per key (dedup folds repeats into a
/// refcount), so the table is derived from the live entries themselves.
struct TbixDedupRow {
  uint64_t Fp = 0, Ph = 0, Id = 0;
};

class PagedIndexReader;

/// Writes the checkpoint of a store whose entries are \p Old's entries
/// followed by \p Tail to \p Path + ".tmp", then removes \p Path and
/// renames the new file into place.
/// There is one writer; a store without a usable checkpoint (a fresh
/// store, an unpaged open, compact()) passes \p Old = null, and every
/// entry is in \p Tail.
///
/// The write carries \p Old forward instead of rebuilding it. It relies
/// on every checkpoint id preceding every tail id (\p Tail ascending):
///   - entry blob: \p Old's bytes verbatim, with RefCount patched in the
///     records \p RefDeltaCk names (+delta) and the Dead flag in those
///     \p DeadCk names; the tail's records are encoded after them;
///   - directory: \p Old's rows verbatim, then the tail's;
///   - key tables: the union of both key sets, rewritten (counts and
///     posting offsets shift);
///   - postings: per key, \p Old's ids, then the tail's;
///   - time table: a two-pointer merge of both (ts, id) sequences;
///   - dedup table: \p Old's rows minus \p DeadCk ids, merged with the
///     tail's live rows, in (fingerprint, payload hash, id) order.
/// The output is byte-identical to encoding every entry from scratch,
/// so equal store state yields equal bytes whatever \p Old was.
///
/// \p Old's file is read sequentially through a buffered handle of the
/// writer's own (never through the query page cache), and each data
/// page's checksum is checked against \p Old's page-sum table as the
/// page streams past: a mismatch fails the write (\p Error names the
/// page) rather than copying corrupt bytes forward. Transient memory is
/// O(tail + keys): the tail's side tables, \p Old's key rows, a 256 KiB
/// read buffer and a 256 KiB write batch — never a decoded checkpoint
/// entry.
bool writePagedIndex(const std::string &Path, const PagedIndexHeaderInfo &H,
                     const PagedIndexReader *Old,
                     const std::set<uint64_t> &DeadCk,
                     const std::map<uint64_t, uint64_t> &RefDeltaCk,
                     const std::vector<SnapStoreEntry> &Tail,
                     std::string &Error);

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// Instrument sinks the page cache reports into (owned by the store).
struct PageCacheInstruments {
  Counter *Hits = nullptr;
  Counter *Misses = nullptr;
  Counter *Evictions = nullptr;
  Gauge *Resident = nullptr; ///< store.bytes_resident contribution.
};

/// A validated, lazily-read TBIX v2 checkpoint. Thread-safe: all page
/// access is serialized through the cache mutex, so parallel query
/// workers can share one reader.
class PagedIndexReader {
public:
  ~PagedIndexReader();

  /// open()'s reason when there is no checkpoint file at all — the one
  /// failure that is not a rejected (degraded) checkpoint.
  static constexpr const char *NoCheckpoint = "no checkpoint";

  /// Opens and fully validates \p Path (header hash, checksum-table
  /// hash, every data page's checksum — one streaming pass — and the
  /// journal-coverage hashes against \p JournalPath). Returns null with
  /// \p Why set when anything fails; the caller falls back to full
  /// journal replay. \p Why is NoCheckpoint when \p Path does not exist.
  static std::unique_ptr<PagedIndexReader>
  open(const std::string &Path, const std::string &JournalPath,
       size_t CacheBytes, const PageCacheInstruments &PI, std::string &Why);

  // Header facts.
  uint64_t entryCount() const { return EntryCount; }
  uint64_t nextId() const { return HdrNextId; }
  uint64_t liveCount() const { return HdrLiveCount; }
  uint64_t liveBytes() const { return HdrLiveBytes; }
  uint64_t liveRefs() const { return HdrLiveRefs; }
  uint64_t journalBytes() const { return HdrJournalBytes; }

  /// Decodes the \p Idx-th entry (directory order = ascending id).
  bool entryByIndex(uint64_t Idx, SnapStoreEntry &Out) const;
  /// The \p Idx-th entry's id without decoding the record.
  uint64_t entryIdAt(uint64_t Idx) const {
    return readU64(EntryDir.Off + Idx * 20);
  }
  /// Binary-searches the directory for \p Id.
  bool entryById(uint64_t Id, SnapStoreEntry &Out) const;
  bool hasEntry(uint64_t Id) const;

  /// A located posting list (byte offset of its id array + id count).
  struct PostingRef {
    uint64_t Off = 0;
    uint64_t Count = 0;
  };
  /// Finds \p Key's posting list in dimension \p D. False = no such key
  /// (which proves no checkpoint entry matches it).
  bool findPosting(TbixDim D, uint64_t Key, PostingRef &Out) const;
  uint64_t postingIdAt(const PostingRef &P, uint64_t I) const;
  /// Sorted-membership probe — the intersection primitive.
  bool postingContains(const PostingRef &P, uint64_t Id) const;

  /// Time table: (timestamp, id) pairs ascending.
  uint64_t timeCount() const { return TimeRows; }
  void timeAt(uint64_t I, uint64_t &Ts, uint64_t &Id) const;

  /// Dedup probe: the checkpoint-time live mapping for (Fp, Ph).
  bool findDedup(uint64_t Fp, uint64_t Ph, uint64_t &IdOut) const;

  /// Bytes currently held by the page cache (≤ the configured cap).
  size_t residentBytes() const;

private:
  friend bool writePagedIndex(const std::string &, const PagedIndexHeaderInfo &,
                              const PagedIndexReader *,
                              const std::set<uint64_t> &,
                              const std::map<uint64_t, uint64_t> &,
                              const std::vector<SnapStoreEntry> &,
                              std::string &);

  PagedIndexReader() = default;

  struct Region {
    uint64_t Off = 0, Len = 0;
  };

  /// Copies [Off, Off+Len) out of the file through the page cache.
  bool read(uint64_t Off, size_t Len, void *Out) const;
  uint64_t readU64(uint64_t Off) const;
  const Region &keyTable(TbixDim D) const;
  const Region &postingRegion(TbixDim D) const;

  std::string Path;
  void *File = nullptr; ///< FILE*, shared under CacheMutex.
  uint64_t FileBytes = 0;

  uint64_t EntryCount = 0, HdrNextId = 1, HdrLiveCount = 0,
           HdrLiveBytes = 0, HdrLiveRefs = 0, HdrJournalBytes = 0;
  uint64_t TimeRows = 0, DedupRows = 0;
  Region EntryBlob, EntryDir, Time, Dedup, PageSums;
  Region KeyTables[4], Postings[4];
  uint64_t TableHash = 0; ///< FNV of the page-sum table (header field).

  // Bounded LRU page cache. Pages are raw 4 KiB file chunks; decoded
  // values are never cached (decoding from a resident page is cheap and
  // keeps the bound exact).
  mutable std::mutex CacheMutex;
  struct Page {
    std::vector<uint8_t> Bytes;
    std::list<uint64_t>::iterator LruIt;
  };
  mutable std::unordered_map<uint64_t, Page> Pages;
  mutable std::list<uint64_t> Lru; ///< Front = most recent.
  mutable size_t CachedBytes = 0;
  size_t CacheCap = 0;
  PageCacheInstruments PI;

  const uint8_t *pageLocked(uint64_t PageIdx) const;
};

} // namespace traceback

#endif // TRACEBACK_COLLECTOR_PAGEDINDEX_H
