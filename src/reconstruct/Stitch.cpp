//===- reconstruct/Stitch.cpp - Distributed trace stitching ---------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "reconstruct/Stitch.h"

#include "support/Text.h"

#include <algorithm>
#include <deque>

using namespace traceback;

void DistributedStitcher::addTrace(const ReconstructedTrace &Trace) {
  for (const ThreadTrace &T : Trace.Threads)
    addThread(T);
}

void DistributedStitcher::noteMissingPeer(const std::string &MachineName) {
  if (std::find(MissingPeerNames.begin(), MissingPeerNames.end(),
                MachineName) == MissingPeerNames.end())
    MissingPeerNames.push_back(MachineName);
}

namespace {
struct SyncSite {
  const ThreadTrace *Trace;
  size_t EventIndex;
  uint64_t Seq;
  SyncKind Kind;
  uint64_t Timestamp;
};
} // namespace

std::vector<LogicalThread>
DistributedStitcher::stitch(std::vector<std::string> &Warnings) const {
  // Collect sync sites grouped by logical thread id.
  std::map<uint64_t, std::vector<SyncSite>> ByLogical;
  for (const ThreadTrace *T : Threads)
    for (size_t I = 0; I < T->Events.size(); ++I) {
      const TraceEvent &E = T->Events[I];
      if (E.EventKind != TraceEvent::Kind::Sync)
        continue;
      ByLogical[E.LogicalThreadId].push_back(
          {T, I, E.Sequence, E.Sync, E.Timestamp});
    }

  // A partial group snap is reported up front: the absence is a property
  // of the snap set, not of any one logical thread.
  for (const std::string &Peer : MissingPeerNames)
    Warnings.push_back(formatv(
        "partial group snap: peer machine '%s' was unreachable; its traces "
        "are absent",
        Peer.c_str()));

  std::vector<LogicalThread> Result;
  for (auto &[LogicalId, Sites] : ByLogical) {
    std::sort(Sites.begin(), Sites.end(),
              [](const SyncSite &A, const SyncSite &B) {
                return A.Seq < B.Seq;
              });

    LogicalThread LT;
    LT.LogicalId = LogicalId;

    // Detect gaps in the causality chain (overwritten records). With a
    // partial group snap the likely cause is the missing peer, not
    // overwrite — say so instead of leaving the gap unexplained.
    const char *GapSuffix =
        MissingPeerNames.empty() ? "" : " (a group-snap peer is missing)";
    for (size_t I = 1; I < Sites.size(); ++I)
      if (Sites[I].Seq != Sites[I - 1].Seq + 1 &&
          Sites[I].Seq != Sites[I - 1].Seq)
        Warnings.push_back(
            formatv("logical thread %llx: sequence gap %llu -> %llu%s",
                    static_cast<unsigned long long>(LogicalId),
                    static_cast<unsigned long long>(Sites[I - 1].Seq),
                    static_cast<unsigned long long>(Sites[I].Seq),
                    GapSuffix));

    // Leading events of the root physical thread.
    if (!Sites.empty()) {
      const SyncSite &First = Sites.front();
      LT.Segments.push_back({First.Trace, 0, First.EventIndex + 1});
    }
    // Between consecutive sync sites on the same physical thread lie that
    // thread's events for this logical thread; a thread change means
    // control moved across the wire with nothing in between.
    for (size_t I = 0; I + 1 < Sites.size(); ++I) {
      const SyncSite &A = Sites[I];
      const SyncSite &B = Sites[I + 1];
      if (A.Trace == B.Trace)
        LT.Segments.push_back({A.Trace, A.EventIndex + 1, B.EventIndex + 1});
      else
        LT.Segments.push_back({B.Trace, B.EventIndex, B.EventIndex + 1});
    }
    // Trailing events of the thread holding the final sync.
    if (!Sites.empty()) {
      const SyncSite &Last = Sites.back();
      if (Last.EventIndex + 1 < Last.Trace->Events.size())
        LT.Segments.push_back({Last.Trace, Last.EventIndex + 1,
                               Last.Trace->Events.size()});
    }
    Result.push_back(std::move(LT));
  }
  return Result;
}

std::map<uint64_t, int64_t> DistributedStitcher::estimateClockOffsets() const {
  // Pair up outbound/inbound sync records by (logical id, seq boundary)
  // and derive per-runtime-pair offset samples.
  struct Sample {
    uint64_t From, To; ///< Runtime ids.
    int64_t Delta;     ///< To-clock minus From-clock at the same instant.
  };
  std::vector<Sample> Samples;

  std::map<std::pair<uint64_t, uint64_t>, SyncSite> Outbound;
  for (const ThreadTrace *T : Threads)
    for (size_t I = 0; I < T->Events.size(); ++I) {
      const TraceEvent &E = T->Events[I];
      if (E.EventKind != TraceEvent::Kind::Sync)
        continue;
      if (E.Sync == SyncKind::CallSend || E.Sync == SyncKind::ReplySend) {
        Outbound[{E.LogicalThreadId, E.Sequence}] =
            {T, I, E.Sequence, E.Sync, E.Timestamp};
      }
    }
  for (const ThreadTrace *T : Threads)
    for (const TraceEvent &E : T->Events) {
      if (E.EventKind != TraceEvent::Kind::Sync)
        continue;
      if (E.Sync != SyncKind::CallRecv && E.Sync != SyncKind::ReplyRecv)
        continue;
      auto It = Outbound.find({E.LogicalThreadId, E.Sequence - 1});
      if (It == Outbound.end())
        continue;
      const SyncSite &Send = It->second;
      if (Send.Timestamp == 0 || E.Timestamp == 0)
        continue; // Timestamp lost (truncated ring): unusable sample.
      // Ignoring network latency, the receive instant equals the send
      // instant; the observed difference is clock offset plus latency.
      Samples.push_back({Send.Trace->RuntimeId, T->RuntimeId,
                         static_cast<int64_t>(E.Timestamp) -
                             static_cast<int64_t>(Send.Timestamp)});
    }

  // Combine forward and reverse samples per pair: averaging a request
  // sample with a reply sample cancels symmetric latency (NTP).
  std::map<std::pair<uint64_t, uint64_t>, std::pair<int64_t, int64_t>>
      PairAccum; // (sum, count)
  for (const Sample &S : Samples) {
    if (S.From == S.To)
      continue;
    auto Key = S.From < S.To ? std::make_pair(S.From, S.To)
                             : std::make_pair(S.To, S.From);
    int64_t Delta = S.From < S.To ? S.Delta : -S.Delta;
    auto &Acc = PairAccum[Key];
    Acc.first += Delta;
    ++Acc.second;
  }

  // Breadth-first propagation of offsets from the first runtime.
  std::map<uint64_t, std::vector<std::pair<uint64_t, int64_t>>> Graph;
  for (const auto &[Key, Acc] : PairAccum) {
    int64_t Avg = Acc.first / Acc.second;
    Graph[Key.first].push_back({Key.second, Avg});
    Graph[Key.second].push_back({Key.first, -Avg});
  }

  std::map<uint64_t, int64_t> Offsets;
  if (Threads.empty())
    return Offsets;
  uint64_t Ref = Threads.front()->RuntimeId;
  Offsets[Ref] = 0;
  std::deque<uint64_t> Queue{Ref};
  while (!Queue.empty()) {
    uint64_t Cur = Queue.front();
    Queue.pop_front();
    for (const auto &[Next, Delta] : Graph[Cur]) {
      if (Offsets.count(Next))
        continue;
      // Next's clock reads Offsets[Cur] + Delta ahead of the reference.
      Offsets[Next] = Offsets[Cur] + Delta;
      Queue.push_back(Next);
    }
  }
  return Offsets;
}

std::vector<DistributedStitcher::TimelineEntry>
DistributedStitcher::mergeTimeline() const {
  std::map<uint64_t, int64_t> Offsets = estimateClockOffsets();
  std::vector<TimelineEntry> Timeline;
  for (const ThreadTrace *T : Threads) {
    int64_t Off = 0;
    if (auto It = Offsets.find(T->RuntimeId); It != Offsets.end())
      Off = It->second;
    uint64_t LastTime = 0;
    for (size_t I = 0; I < T->Events.size(); ++I) {
      uint64_t Ts = T->Events[I].Timestamp;
      uint64_t Corrected =
          Ts == 0 ? LastTime
                  : static_cast<uint64_t>(static_cast<int64_t>(Ts) - Off);
      if (Corrected < LastTime)
        Corrected = LastTime; // Monotonic within a thread.
      LastTime = Corrected;
      Timeline.push_back({T, I, Corrected});
    }
  }
  std::stable_sort(Timeline.begin(), Timeline.end(),
                   [](const TimelineEntry &A, const TimelineEntry &B) {
                     return A.CorrectedTime < B.CorrectedTime;
                   });
  return Timeline;
}
