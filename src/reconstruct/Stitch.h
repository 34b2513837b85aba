//===- reconstruct/Stitch.h - Distributed trace stitching -------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Distributed reconstruction (paper section 5): fuses physical-thread
/// traces from many runtimes (separate processes, machines, or the two
/// technologies inside one process) into logical threads by matching the
/// four SYNC records each RPC produces, and estimates per-runtime clock
/// skew from the SYNC timestamp pairs so cross-runtime interleavings can
/// be ordered (section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RECONSTRUCT_STITCH_H
#define TRACEBACK_RECONSTRUCT_STITCH_H

#include "reconstruct/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace traceback {

/// A contiguous slice of one physical thread's events belonging to a
/// logical thread.
struct LogicalSegment {
  const ThreadTrace *Trace = nullptr;
  size_t Begin = 0; ///< First event index (inclusive).
  size_t End = 0;   ///< One past the last event index.
};

/// One causally-ordered chain of physical-thread segments.
struct LogicalThread {
  uint64_t LogicalId = 0;
  std::vector<LogicalSegment> Segments;
};

/// Fuses traces from any number of snaps/runtimes.
class DistributedStitcher {
public:
  /// Registers every thread of \p Trace (the object must outlive the
  /// stitcher's results).
  void addTrace(const ReconstructedTrace &Trace);

  /// Registers one physical thread (it must outlive the stitcher's
  /// results).
  void addThread(const ThreadTrace &Thread) { Threads.push_back(&Thread); }

  /// Records that the snap set is a PARTIAL group snap: machine
  /// \p MachineName was unreachable when the group snap fanned out (a
  /// MISSING-PEER marker stood in for its contribution), so its traces
  /// are absent by construction. stitch() reports the absence once and
  /// attributes otherwise-unexplained sequence gaps to it. Duplicate
  /// names are collapsed.
  void noteMissingPeer(const std::string &MachineName);

  /// Machines noted as missing, in first-noted order.
  const std::vector<std::string> &missingPeers() const {
    return MissingPeerNames;
  }

  /// Builds the logical threads. Sequence gaps (lost records) produce
  /// warnings but do not abort.
  std::vector<LogicalThread> stitch(std::vector<std::string> &Warnings) const;

  /// Estimates each runtime's clock offset relative to the first-seen
  /// runtime, NTP-style from SYNC pairs:
  /// offset = ((t_recv - t_send) + (t_replySend - t_replyRecv)) / 2.
  /// Runtimes unreachable through any SYNC edge are absent from the map.
  std::map<uint64_t, int64_t> estimateClockOffsets() const;

  /// Merges events of all registered threads into one timeline ordered by
  /// skew-corrected timestamps (ties keep per-thread order). Events with
  /// no timestamp inherit their predecessor's.
  struct TimelineEntry {
    const ThreadTrace *Trace;
    size_t EventIndex;
    uint64_t CorrectedTime;
  };
  std::vector<TimelineEntry> mergeTimeline() const;

private:
  std::vector<const ThreadTrace *> Threads;
  std::vector<std::string> MissingPeerNames;
};

} // namespace traceback

#endif // TRACEBACK_RECONSTRUCT_STITCH_H
