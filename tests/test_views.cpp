//===- tests/test_views.cpp - Display layer tests -------------------------===//
//
// Part of the TraceBack reproduction project (paper section 4.3).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "instrument/MapFile.h"
#include "reconstruct/Stitch.h"
#include "support/Text.h"
#include "vm/Fault.h"

#include <gtest/gtest.h>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {
ThreadTrace makeTrace(uint64_t Tid, std::initializer_list<TraceEvent> Evs) {
  ThreadTrace T;
  T.ThreadId = Tid;
  T.RuntimeId = 42;
  T.MachineName = "m";
  T.ProcessName = "p";
  T.Events = Evs;
  return T;
}

TraceEvent line(const char *File, uint32_t Line, uint32_t Depth = 0,
                uint64_t Ts = 0, uint32_t Repeat = 1) {
  TraceEvent E;
  E.EventKind = TraceEvent::Kind::Line;
  E.Module = "mod";
  E.File = File;
  E.Function = "f";
  E.Line = Line;
  E.Depth = Depth;
  E.Timestamp = Ts;
  E.Repeat = Repeat;
  return E;
}
} // namespace

TEST(ViewsTest, FlatTraceShowsRepeatAndTruncation) {
  ThreadTrace T = makeTrace(3, {line("a.c", 10, 0, 0, 7)});
  T.Truncated = true;
  std::string S = renderFlatTrace(T);
  EXPECT_NE(S.find("thread 3"), std::string::npos);
  EXPECT_NE(S.find("a.c:10"), std::string::npos);
  EXPECT_NE(S.find("(x7)"), std::string::npos);
  EXPECT_NE(S.find("older history overwritten"), std::string::npos);
}

TEST(ViewsTest, CallTreeIndentsByDepth) {
  ThreadTrace T =
      makeTrace(1, {line("a.c", 1, 0), line("a.c", 2, 1), line("a.c", 3, 2)});
  std::string S = renderCallTree(T);
  size_t P1 = S.find("a.c:1");
  size_t P2 = S.find("a.c:2");
  size_t P3 = S.find("a.c:3");
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  ASSERT_NE(P3, std::string::npos);
  // Deeper lines start further from their line's beginning.
  auto ColOf = [&](size_t Pos) {
    size_t Nl = S.rfind('\n', Pos);
    return Pos - (Nl == std::string::npos ? 0 : Nl);
  };
  EXPECT_LT(ColOf(P1), ColOf(P2));
  EXPECT_LT(ColOf(P2), ColOf(P3));
}

TEST(ViewsTest, MultiThreadOrdersByTimestamp) {
  ThreadTrace A = makeTrace(1, {line("a.c", 1, 0, 100),
                                line("a.c", 2, 0, 300)});
  ThreadTrace B = makeTrace(2, {line("b.c", 9, 0, 200)});
  std::string S = renderMultiThread({&A, &B});
  size_t P1 = S.find("a.c:1");
  size_t P9 = S.find("b.c:9");
  size_t P2 = S.find("a.c:2");
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P9, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  EXPECT_LT(P1, P9);
  EXPECT_LT(P9, P2) << "interleaving must respect corrected time";
}

TEST(ViewsTest, TimelineMonotonicPerThread) {
  // Events lacking timestamps inherit order; merged timeline never
  // reorders events within one thread.
  ThreadTrace A = makeTrace(
      1, {line("a.c", 1, 0, 50), line("a.c", 2, 0, 0), line("a.c", 3, 0, 60),
          line("a.c", 4, 0, 0)});
  ReconstructedTrace Holder;
  Holder.Threads.push_back(A);
  DistributedStitcher St;
  St.addTrace(Holder);
  auto Timeline = St.mergeTimeline();
  ASSERT_EQ(Timeline.size(), 4u);
  size_t LastIdx = 0;
  for (const auto &E : Timeline) {
    EXPECT_GE(E.EventIndex + 1, LastIdx + 1);
    LastIdx = E.EventIndex;
  }
}

TEST(ViewsTest, FaultViewPicksFaultingThread) {
  SnapFile Snap;
  Snap.Reason = SnapReason::Unhandled;
  Snap.FaultThread = 2;
  Snap.FaultCodeValue = 1; // Segv.
  ReconstructedTrace T;
  T.Threads.push_back(makeTrace(1, {line("a.c", 1)}));
  T.Threads.push_back(makeTrace(2, {line("b.c", 7)}));
  std::string S = renderFaultView(Snap, T);
  EXPECT_NE(S.find("thread 2"), std::string::npos);
  EXPECT_NE(S.find("b.c:7"), std::string::npos);
  EXPECT_EQ(S.find("a.c:1"), std::string::npos)
      << "only the faulting thread's tree";
  EXPECT_NE(S.find("access violation"), std::string::npos);
}

TEST(ViewsTest, SignalCodesRenderAsSignals) {
  ThreadTrace T = makeTrace(1, {});
  TraceEvent E;
  E.EventKind = TraceEvent::Kind::Exception;
  E.FaultCodeValue = 0x8000 | 11;
  T.Events.push_back(E);
  std::string S = renderFlatTrace(T);
  EXPECT_NE(S.find("signal 11"), std::string::npos);
}

TEST(ViewsTest, EmptyMemoryDumpExplainsItself) {
  SnapFile Snap;
  EXPECT_NE(renderMemoryDump(Snap).find("capture_memory"),
            std::string::npos);
}

TEST(StitchTest, GapInSequenceWarns) {
  // CallSend seq 1 ... ReplyRecv seq 4 with 2,3 lost (ring overwrite).
  TraceEvent S1;
  S1.EventKind = TraceEvent::Kind::Sync;
  S1.Sync = SyncKind::CallSend;
  S1.LogicalThreadId = 7;
  S1.Sequence = 1;
  TraceEvent S4 = S1;
  S4.Sync = SyncKind::ReplyRecv;
  S4.Sequence = 4;
  ThreadTrace A = makeTrace(1, {S1, S4});
  ReconstructedTrace Holder;
  Holder.Threads.push_back(A);
  DistributedStitcher St;
  St.addTrace(Holder);
  std::vector<std::string> Warnings;
  auto Logical = St.stitch(Warnings);
  ASSERT_EQ(Logical.size(), 1u);
  ASSERT_FALSE(Warnings.empty());
  EXPECT_NE(Warnings[0].find("gap"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Renderer equivalence: the views append text into one buffer; their
// output must match, byte for byte, the printf formats they replaced.
// The oracle below is those formats, one formatv call per piece.
//===----------------------------------------------------------------------===//

namespace oracle {
std::string describeFault(uint16_t Code) {
  if (Code & 0x8000)
    return formatv("signal %u", Code & 0xFFF);
  return faultCodeName(static_cast<FaultCode>(Code));
}

std::string syncKindName(SyncKind K) {
  switch (K) {
  case SyncKind::CallSend:
    return "call ->";
  case SyncKind::CallRecv:
    return "-> enter";
  case SyncKind::ReplySend:
    return "exit ->";
  case SyncKind::ReplyRecv:
    return "-> return";
  }
  return "?";
}

std::string eventOneLiner(const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line: {
    std::string S = formatv("%-14s %s:%u  %s", E.Module.c_str(),
                            E.File.c_str(), E.Line, E.Function.c_str());
    if (E.Repeat > 1)
      S += formatv("  (x%u)", E.Repeat);
    if (E.Trimmed)
      S += "  <- partial";
    return S;
  }
  case TraceEvent::Kind::Exception:
    return formatv("*** exception: %s",
                   describeFault(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::ExceptionEnd:
    return formatv("*** resumed after %s",
                   describeFault(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::Sync:
    return formatv("[sync %s logical=%llx seq=%llu]",
                   syncKindName(E.Sync).c_str(),
                   static_cast<unsigned long long>(E.LogicalThreadId),
                   static_cast<unsigned long long>(E.Sequence));
  case TraceEvent::Kind::ThreadStart:
    return "[thread start]";
  case TraceEvent::Kind::ThreadEnd:
    return "[thread end]";
  case TraceEvent::Kind::Untraced:
    return formatv("[untraced: %s]", E.Module.c_str());
  }
  return "?";
}

std::string renderFlatTrace(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu on %s/%s%s\n",
                            static_cast<unsigned long long>(Trace.ThreadId),
                            Trace.MachineName.c_str(),
                            Trace.ProcessName.c_str(),
                            Trace.Truncated ? " (older history overwritten)"
                                            : "");
  for (const TraceEvent &E : Trace.Events)
    Out += "  " + eventOneLiner(E) + "\n";
  if (Trace.TruncatedAt != UINT64_MAX)
    Out += formatv("  <torn write: newer history lost at word %llu>\n",
                   static_cast<unsigned long long>(Trace.TruncatedAt));
  return Out;
}

std::string renderCallTree(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu call tree\n",
                            static_cast<unsigned long long>(Trace.ThreadId));
  for (const TraceEvent &E : Trace.Events) {
    std::string Indent(static_cast<size_t>(E.Depth) * 2, ' ');
    std::string Marker;
    if (E.EventKind == TraceEvent::Kind::Line) {
      if (E.BlockFlags & MBF_FuncEntry)
        Marker = "+ ";
      else if (E.BlockFlags & MBF_EndsInRet)
        Marker = "^ ";
    }
    Out += "  " + Indent + Marker + eventOneLiner(E) + "\n";
  }
  return Out;
}

std::string renderMultiThread(const std::vector<const ThreadTrace *> &Traces) {
  std::string Out;
  ReconstructedTrace Holder;
  for (const ThreadTrace *T : Traces)
    Holder.Threads.push_back(*T);
  DistributedStitcher S;
  S.addTrace(Holder);
  for (const auto &Entry : S.mergeTimeline()) {
    const TraceEvent &E = Entry.Trace->Events[Entry.EventIndex];
    Out += formatv("t%-3llu |%*s%s\n",
                   static_cast<unsigned long long>(Entry.Trace->ThreadId), 0,
                   "", eventOneLiner(E).c_str());
  }
  return Out;
}

std::string renderLogicalThread(const LogicalThread &LT) {
  std::string Out = formatv("logical thread %llx\n",
                            static_cast<unsigned long long>(LT.LogicalId));
  for (const LogicalSegment &Seg : LT.Segments) {
    Out += formatv("-- on %s/%s thread %llu --\n",
                   Seg.Trace->MachineName.c_str(),
                   Seg.Trace->ProcessName.c_str(),
                   static_cast<unsigned long long>(Seg.Trace->ThreadId));
    for (size_t I = Seg.Begin; I < Seg.End && I < Seg.Trace->Events.size();
         ++I)
      Out += "  " + eventOneLiner(Seg.Trace->Events[I]) + "\n";
  }
  return Out;
}

std::string renderFaultView(const SnapFile &Snap,
                            const ReconstructedTrace &Trace) {
  std::string Out = formatv("snap: %s (detail %u) from %s/%s\n",
                            snapReasonName(Snap.Reason).c_str(),
                            Snap.ReasonDetail, Snap.MachineName.c_str(),
                            Snap.ProcessName.c_str());
  if (Snap.Reason == SnapReason::Hang || Snap.Reason == SnapReason::External) {
    for (const ThreadTrace &T : Trace.Threads) {
      const TraceEvent *LastLine = nullptr;
      for (const TraceEvent &E : T.Events)
        if (E.EventKind == TraceEvent::Kind::Line)
          LastLine = &E;
      Out += formatv("  thread %llu: %s\n",
                     static_cast<unsigned long long>(T.ThreadId),
                     LastLine ? eventOneLiner(*LastLine).c_str()
                              : "<no trace>");
    }
    return Out;
  }
  const ThreadTrace *Faulting = Trace.threadById(Snap.FaultThread);
  if (!Faulting && !Trace.Threads.empty())
    Faulting = &Trace.Threads.front();
  if (!Faulting)
    return Out + "  <no thread traces recovered>\n";
  Out += oracle::renderCallTree(*Faulting);
  Out += formatv("=> fault: %s\n", describeFault(Snap.FaultCodeValue).c_str());
  return Out;
}

std::string renderMemoryDump(const SnapFile &Snap) {
  std::string Out;
  if (Snap.Memory.empty())
    return "<no memory captured; enable capture_memory in the policy>\n";
  for (const SnapMemoryRegion &R : Snap.Memory) {
    Out += formatv("region %s @ 0x%llx (%zu bytes)\n", R.Label.c_str(),
                   static_cast<unsigned long long>(R.Base), R.Bytes.size());
    for (size_t I = 0; I < R.Bytes.size(); I += 16) {
      Out += formatv("  %08llx:", static_cast<unsigned long long>(R.Base + I));
      for (size_t J = I; J < I + 16 && J < R.Bytes.size(); ++J)
        Out += formatv(" %02x", R.Bytes[J]);
      Out += "\n";
    }
  }
  return Out;
}
} // namespace oracle

namespace {
/// Every event shape the renderers distinguish, in one table.
std::vector<TraceEvent> eventTable() {
  std::vector<TraceEvent> T;
  const std::string Modules[] = {
      "",                              // empty
      "m",                             // shorter than the 14-column pad
      "exactly14chars",                // equal
      "module_name_wider_than_pad",    // longer
      std::string("nul\0hidden", 10),  // printf's %s stops at the NUL
  };
  uint32_t Step = 0;
  for (const std::string &M : Modules) {
    for (uint8_t Flags :
         {uint8_t(0), uint8_t(MBF_FuncEntry), uint8_t(MBF_EndsInRet),
          uint8_t(MBF_FuncEntry | MBF_EndsInRet), uint8_t(MBF_EndsInCall)}) {
      TraceEvent E = line("src/file.c", 10 + Step, Step % 7, 100 + Step * 3);
      E.Module = M;
      E.Function = Step % 2 ? "fn_with_a_long_name" : "g";
      E.BlockFlags = Flags;
      E.Repeat = Step % 3 == 0 ? 1 : Step;
      E.Trimmed = Step % 4 == 1;
      T.push_back(E);
      ++Step;
    }
  }
  TraceEvent Extreme = line("x.c", UINT32_MAX, 63, 5000, UINT32_MAX);
  Extreme.Module = "deep";
  Extreme.Trimmed = true;
  Extreme.BlockFlags = MBF_FuncEntry;
  T.push_back(Extreme);
  Extreme.Depth = 0;
  Extreme.Repeat = 2;
  T.push_back(Extreme);

  for (auto K : {TraceEvent::Kind::Exception, TraceEvent::Kind::ExceptionEnd})
    for (uint16_t Code : {uint16_t(0), uint16_t(1), uint16_t(2), uint16_t(3),
                          uint16_t(4), uint16_t(5), uint16_t(6), uint16_t(7),
                          uint16_t(42), uint16_t(100), uint16_t(137),
                          uint16_t(0x8000 | 11), uint16_t(0x8000 | 0xFFF),
                          uint16_t(0x8000 | 0x7123), uint16_t(0x8000)}) {
      TraceEvent E;
      E.EventKind = K;
      E.FaultCodeValue = Code;
      E.Depth = Code % 5;
      // Markers are for line events only.
      E.BlockFlags = MBF_FuncEntry | MBF_EndsInRet;
      E.Timestamp = 200 + Code;
      T.push_back(E);
    }

  for (SyncKind S : {SyncKind::CallSend, SyncKind::CallRecv,
                     SyncKind::ReplySend, SyncKind::ReplyRecv,
                     static_cast<SyncKind>(0xEE)})
    for (uint64_t Lid : {uint64_t(0), uint64_t(0xabc),
                         uint64_t(0xfedcba9876543210ull), UINT64_MAX}) {
      TraceEvent E;
      E.EventKind = TraceEvent::Kind::Sync;
      E.Sync = S;
      E.LogicalThreadId = Lid;
      E.Sequence = Lid == UINT64_MAX ? UINT64_MAX : Lid % 1000;
      E.Depth = 2;
      E.Timestamp = 300 + Lid % 97;
      T.push_back(E);
    }

  for (auto K : {TraceEvent::Kind::ThreadStart, TraceEvent::Kind::ThreadEnd,
                 TraceEvent::Kind::Untraced,
                 static_cast<TraceEvent::Kind>(0x7F)}) {
    for (const std::string &M : Modules) {
      TraceEvent E;
      E.EventKind = K;
      E.Module = M;
      E.Depth = 1;
      T.push_back(E);
    }
  }
  return T;
}

ThreadTrace tableTrace(uint64_t Tid) {
  ThreadTrace T = makeTrace(Tid, {});
  T.Events = eventTable();
  return T;
}
} // namespace

TEST(ViewsEquivalenceTest, FlatTraceMatchesPrintfFormats) {
  for (bool Truncated : {false, true})
    for (uint64_t At : {UINT64_MAX, uint64_t(0), uint64_t(123456789)}) {
      ThreadTrace T = tableTrace(7);
      T.Truncated = Truncated;
      T.TruncatedAt = At;
      EXPECT_EQ(renderFlatTrace(T), oracle::renderFlatTrace(T))
          << "truncated=" << Truncated << " at=" << At;
    }
  ThreadTrace Empty = makeTrace(0, {});
  EXPECT_EQ(renderFlatTrace(Empty), oracle::renderFlatTrace(Empty));
}

TEST(ViewsEquivalenceTest, CallTreeMatchesPrintfFormats) {
  ThreadTrace T = tableTrace(UINT64_MAX);
  EXPECT_EQ(renderCallTree(T), oracle::renderCallTree(T));
  ThreadTrace Empty = makeTrace(3, {});
  EXPECT_EQ(renderCallTree(Empty), oracle::renderCallTree(Empty));
}

TEST(ViewsEquivalenceTest, MultiThreadMatchesPrintfFormats) {
  // Thread ids below, at and beyond the 3-column pad.
  ThreadTrace A = tableTrace(1);
  ThreadTrace B = tableTrace(123);
  ThreadTrace C = tableTrace(98765);
  for (size_t I = 0; I < C.Events.size(); ++I)
    C.Events[I].Timestamp += 1; // Interleave rather than tie.
  ThreadTrace D = makeTrace(12, {});
  std::vector<const ThreadTrace *> All = {&A, &B, &C, &D};
  EXPECT_EQ(renderMultiThread(All), oracle::renderMultiThread(All));
  EXPECT_EQ(renderMultiThread({}), oracle::renderMultiThread({}));
}

TEST(ViewsEquivalenceTest, LogicalThreadMatchesPrintfFormats) {
  ThreadTrace A = tableTrace(4);
  ThreadTrace B = tableTrace(5);
  B.MachineName = "beta";
  B.ProcessName = "server";
  LogicalThread LT;
  LT.LogicalId = 0xfedcba9876543210ull;
  size_t N = A.Events.size();
  LT.Segments = {{&A, 0, N / 2},
                 {&B, 3, 3},           // empty slice
                 {&B, 10, N + 50},     // End past the trace
                 {&A, N / 2, N}};
  EXPECT_EQ(renderLogicalThread(LT), oracle::renderLogicalThread(LT));
  LogicalThread None;
  EXPECT_EQ(renderLogicalThread(None), oracle::renderLogicalThread(None));
}

TEST(ViewsEquivalenceTest, FaultViewMatchesPrintfFormats) {
  ReconstructedTrace T;
  T.Threads.push_back(tableTrace(1));
  T.Threads.push_back(tableTrace(2));
  // A thread with events but no Line event, and one with none at all.
  T.Threads.push_back(makeTrace(3, {}));
  for (const TraceEvent &E : eventTable())
    if (E.EventKind != TraceEvent::Kind::Line)
      T.Threads.back().Events.push_back(E);
  T.Threads.push_back(makeTrace(4, {}));
  ReconstructedTrace Empty;

  for (SnapReason R : {SnapReason::Exception, SnapReason::Signal,
                       SnapReason::Unhandled, SnapReason::Api,
                       SnapReason::Hang, SnapReason::External})
    for (uint64_t FaultThread : {uint64_t(2), uint64_t(3), uint64_t(99)})
      for (uint16_t Code : {uint16_t(1), uint16_t(0x8000 | 11),
                            uint16_t(105)}) {
        SnapFile Snap;
        Snap.Reason = R;
        Snap.ReasonDetail = 17;
        Snap.MachineName = "alpha";
        Snap.ProcessName = "client";
        Snap.FaultThread = FaultThread;
        Snap.FaultCodeValue = Code;
        EXPECT_EQ(renderFaultView(Snap, T), oracle::renderFaultView(Snap, T))
            << "reason " << static_cast<int>(R) << " thread " << FaultThread
            << " code " << Code;
        EXPECT_EQ(renderFaultView(Snap, Empty),
                  oracle::renderFaultView(Snap, Empty));
      }
}

TEST(ViewsEquivalenceTest, MemoryDumpMatchesPrintfFormats) {
  SnapFile Snap;
  EXPECT_EQ(renderMemoryDump(Snap), oracle::renderMemoryDump(Snap));
  auto Region = [](uint64_t Base, const char *Label, size_t Len) {
    SnapMemoryRegion R;
    R.Base = Base;
    R.Label = Label;
    for (size_t I = 0; I < Len; ++I)
      R.Bytes.push_back(static_cast<uint8_t>(I * 37 + 5));
    return R;
  };
  Snap.Memory.push_back(Region(0x10, "stack t1", 16));
  Snap.Memory.push_back(Region(0x7fff0000, "fault addr", 37)); // partial row
  Snap.Memory.push_back(Region(0x123456789aull, "wide base", 40));
  Snap.Memory.push_back(Region(0, "empty", 0));
  Snap.Memory.push_back(Region(UINT64_MAX - 7, "wraps", 20));
  EXPECT_EQ(renderMemoryDump(Snap), oracle::renderMemoryDump(Snap));
}
