//===- reconstruct/Views.cpp - Trace display rendering --------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Every view is built in one output string. Per-event text goes through
// one append kernel, appendEventLine(), which writes straight into the
// caller's buffer: names by pointer, integers through std::to_chars,
// padding as runs of spaces. A fault view is thousands of lines, so a
// printf call per line would cost more than reconstructing the trace.
// formatv is left to the once-per-view headers. The output is
// byte-identical to the printf formats quoted beside each piece
// (tests/test_views.cpp keeps those formats as an oracle).
//
//===----------------------------------------------------------------------===//

#include "reconstruct/Views.h"

#include "instrument/MapFile.h"
#include "support/Text.h"
#include "vm/Fault.h"

#include <algorithm>
#include <charconv>

using namespace traceback;

namespace {
/// Bytes reserved per rendered event (a fault view averages ~41).
constexpr size_t BytesPerEventLine = 48;

/// Appends \p S as printf's "%s" would: up to its first NUL.
void appendStr(std::string &Out, const std::string &S) {
  Out.append(S.c_str());
}

/// Pads the text appended since \p Start with spaces to \p Width
/// columns, as printf's "%-<Width>" does.
void padFrom(std::string &Out, size_t Start, size_t Width) {
  size_t Len = Out.size() - Start;
  if (Len < Width)
    Out.append(Width - Len, ' ');
}

/// Appends \p V in base \p Base, zero-padded to \p MinDigits ("%llu",
/// "%llx", "%08llx").
void appendUInt(std::string &Out, uint64_t V, int Base = 10,
                size_t MinDigits = 0) {
  char Buf[24];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V, Base).ptr;
  size_t Len = static_cast<size_t>(End - Buf);
  if (Len < MinDigits)
    Out.append(MinDigits - Len, '0');
  Out.append(Buf, Len);
}

/// "signal N" for a signal code (0x8000 | N), else the fault's name.
void appendFault(std::string &Out, uint16_t Code) {
  if (Code & 0x8000) {
    Out += "signal ";
    appendUInt(Out, Code & 0xFFF);
    return;
  }
  Out += faultCodeName(static_cast<FaultCode>(Code));
}

const char *syncKindName(SyncKind K) {
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

/// The append kernel: one event's one-line description, no newline.
void appendEventLine(std::string &Out, const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line: {
    // "%-14s %s:%u  %s", then "  (x%u)" and "  <- partial".
    size_t Start = Out.size();
    appendStr(Out, E.Module);
    padFrom(Out, Start, 14);
    Out += ' ';
    appendStr(Out, E.File);
    Out += ':';
    appendUInt(Out, E.Line);
    Out += "  ";
    appendStr(Out, E.Function);
    if (E.Repeat > 1) {
      Out += "  (x";
      appendUInt(Out, E.Repeat);
      Out += ')';
    }
    if (E.Trimmed)
      Out += "  <- partial";
    return;
  }
  case TraceEvent::Kind::Exception:
    Out += "*** exception: ";
    appendFault(Out, E.FaultCodeValue);
    return;
  case TraceEvent::Kind::ExceptionEnd:
    Out += "*** resumed after ";
    appendFault(Out, E.FaultCodeValue);
    return;
  case TraceEvent::Kind::Sync:
    // "[sync %s logical=%llx seq=%llu]".
    Out += "[sync ";
    Out += syncKindName(E.Sync);
    Out += " logical=";
    appendUInt(Out, E.LogicalThreadId, 16);
    Out += " seq=";
    appendUInt(Out, E.Sequence);
    Out += ']';
    return;
  case TraceEvent::Kind::ThreadStart:
    Out += "[thread start]";
    return;
  case TraceEvent::Kind::ThreadEnd:
    Out += "[thread end]";
    return;
  case TraceEvent::Kind::Untraced:
    Out += "[untraced: ";
    appendStr(Out, E.Module);
    Out += ']';
    return;
  }
  Out += '?';
}

/// The call-tree view: a header, then per event "  " + 2*Depth spaces +
/// marker + the one-liner. Function entries are marked "+ ", else
/// returns "^ ".
void appendCallTree(std::string &Out, const ThreadTrace &Trace) {
  Out += formatv("thread %llu call tree\n",
                 static_cast<unsigned long long>(Trace.ThreadId));
  Out.reserve(Out.size() + Trace.Events.size() * BytesPerEventLine + 64);
  for (const TraceEvent &E : Trace.Events) {
    Out.append(2 + static_cast<size_t>(E.Depth) * 2, ' ');
    if (E.EventKind == TraceEvent::Kind::Line) {
      if (E.BlockFlags & MBF_FuncEntry)
        Out += "+ ";
      else if (E.BlockFlags & MBF_EndsInRet)
        Out += "^ ";
    }
    appendEventLine(Out, E);
    Out += '\n';
  }
}
} // namespace

std::string traceback::renderFlatTrace(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu on %s/%s%s\n",
                            static_cast<unsigned long long>(Trace.ThreadId),
                            Trace.MachineName.c_str(),
                            Trace.ProcessName.c_str(),
                            Trace.Truncated ? " (older history overwritten)"
                                            : "");
  Out.reserve(Out.size() + Trace.Events.size() * BytesPerEventLine + 64);
  for (const TraceEvent &E : Trace.Events) {
    Out += "  ";
    appendEventLine(Out, E);
    Out += '\n';
  }
  if (Trace.TruncatedAt != UINT64_MAX)
    Out += formatv("  <torn write: newer history lost at word %llu>\n",
                   static_cast<unsigned long long>(Trace.TruncatedAt));
  return Out;
}

std::string traceback::renderCallTree(const ThreadTrace &Trace) {
  std::string Out;
  appendCallTree(Out, Trace);
  return Out;
}

std::string traceback::renderMultiThread(
    const std::vector<const ThreadTrace *> &Traces) {
  // Reuse the stitcher's skew-corrected timeline merge.
  DistributedStitcher S;
  size_t Events = 0;
  for (const ThreadTrace *T : Traces) {
    S.addThread(*T);
    Events += T->Events.size();
  }
  std::string Out;
  Out.reserve(Events * BytesPerEventLine);
  for (const auto &Entry : S.mergeTimeline()) {
    // "t%-3llu |" then the one-liner.
    Out += 't';
    size_t Start = Out.size();
    appendUInt(Out, Entry.Trace->ThreadId);
    padFrom(Out, Start, 3);
    Out += " |";
    appendEventLine(Out, Entry.Trace->Events[Entry.EventIndex]);
    Out += '\n';
  }
  return Out;
}

std::string traceback::renderLogicalThread(const LogicalThread &LT) {
  std::string Out =
      formatv("logical thread %llx\n",
              static_cast<unsigned long long>(LT.LogicalId));
  for (const LogicalSegment &Seg : LT.Segments) {
    Out += formatv("-- on %s/%s thread %llu --\n",
                   Seg.Trace->MachineName.c_str(),
                   Seg.Trace->ProcessName.c_str(),
                   static_cast<unsigned long long>(Seg.Trace->ThreadId));
    size_t End = std::min(Seg.End, Seg.Trace->Events.size());
    if (Seg.Begin < End)
      Out.reserve(Out.size() + (End - Seg.Begin) * BytesPerEventLine);
    for (size_t I = Seg.Begin; I < End; ++I) {
      Out += "  ";
      appendEventLine(Out, Seg.Trace->Events[I]);
      Out += '\n';
    }
  }
  return Out;
}

std::string traceback::renderFaultView(const SnapFile &Snap,
                                       const ReconstructedTrace &Trace) {
  std::string Out = formatv("snap: %s (detail %u) from %s/%s\n",
                            snapReasonName(Snap.Reason).c_str(),
                            Snap.ReasonDetail, Snap.MachineName.c_str(),
                            Snap.ProcessName.c_str());

  if (Snap.Reason == SnapReason::Hang || Snap.Reason == SnapReason::External) {
    // Deadlock-style snap: one line per thread, the most recent source
    // line each thread executed (section 4.3.3).
    Out.reserve(Out.size() +
                Trace.Threads.size() * (BytesPerEventLine + 32));
    for (const ThreadTrace &T : Trace.Threads) {
      const TraceEvent *LastLine = nullptr;
      for (const TraceEvent &E : T.Events)
        if (E.EventKind == TraceEvent::Kind::Line)
          LastLine = &E;
      Out += "  thread ";
      appendUInt(Out, T.ThreadId);
      Out += ": ";
      if (LastLine)
        appendEventLine(Out, *LastLine);
      else
        Out += "<no trace>";
      Out += '\n';
    }
    return Out;
  }

  // Exception-style snap: the faulting thread's call tree, fault
  // highlighted.
  const ThreadTrace *Faulting = Trace.threadById(Snap.FaultThread);
  if (!Faulting && !Trace.Threads.empty())
    Faulting = &Trace.Threads.front();
  if (!Faulting)
    return Out + "  <no thread traces recovered>\n";
  appendCallTree(Out, *Faulting);
  Out += "=> fault: ";
  appendFault(Out, Snap.FaultCodeValue);
  Out += '\n';
  return Out;
}

std::string traceback::renderMemoryDump(const SnapFile &Snap) {
  if (Snap.Memory.empty())
    return "<no memory captured; enable capture_memory in the policy>\n";
  static constexpr char Hex[] = "0123456789abcdef";
  size_t Reserve = 0;
  for (const SnapMemoryRegion &R : Snap.Memory)
    Reserve += R.Label.size() + 64 + (R.Bytes.size() + 15) / 16 * 12 +
               R.Bytes.size() * 3;
  std::string Out;
  Out.reserve(Reserve);
  for (const SnapMemoryRegion &R : Snap.Memory) {
    Out += formatv("region %s @ 0x%llx (%zu bytes)\n", R.Label.c_str(),
                   static_cast<unsigned long long>(R.Base), R.Bytes.size());
    for (size_t I = 0; I < R.Bytes.size(); I += 16) {
      // "  %08llx:" then " %02x" per byte.
      Out += "  ";
      appendUInt(Out, R.Base + I, 16, 8);
      Out += ':';
      for (size_t J = I; J < I + 16 && J < R.Bytes.size(); ++J) {
        uint8_t B = R.Bytes[J];
        Out += ' ';
        Out += Hex[B >> 4];
        Out += Hex[B & 0xF];
      }
      Out += '\n';
    }
  }
  return Out;
}
