//===- replay/Recorder.cpp - Execution recording scribe -------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "replay/Recorder.h"

#include "core/Session.h"
#include "instrument/Instrumenter.h"
#include "support/Hash.h"
#include "vm/FaultInjector.h"

#include <algorithm>

using namespace traceback;

void ExecutionRecorder::attach(Deployment &Dep) {
  D = &Dep;
  Dep.world().Scribe = this;
}

uint64_t
ExecutionRecorder::candidateHash(const std::vector<SliceCandidate> &Cands) {
  uint64_t H = Fnv64Basis;
  for (const SliceCandidate &C : Cands) {
    H = fnv1a64Word(C.MachineId, H);
    H = fnv1a64Word(C.Pid, H);
    H = fnv1a64Word(C.Tid, H);
  }
  return H;
}

void ExecutionRecorder::push(LogEntry E) {
  E.Ordinal = NextOrd[static_cast<size_t>(E.Kind)]++;
  Ring.push_back(std::move(E));
  if (Window != 0 && Ring.size() > Window) {
    Ring.pop_front();
    ++Dropped;
  }
}

void ExecutionRecorder::captureGenesis() {
  if (GenesisDone || !D)
    return;
  GenesisDone = true;
  World &W = D->world();

  Base.PolicyText = D->Policy.toText();
  Base.PlanText = W.Injector ? W.Injector->plan().toText() : std::string();
  Base.Quantum = W.Quantum;
  Base.NetEnabled = D->networkEnabled();
  Base.WindowCap = Window;

  Machine *Collector = D->collectorMachine();
  for (const auto &M : W.Machines) {
    LogMachine LM;
    LM.Name = M->Name;
    LM.OsName = M->OsName;
    LM.ClockOffset = M->Clock.offset();
    LM.RateNum = M->Clock.rateNum();
    LM.RateDen = M->Clock.rateDen();
    LM.IsCollector = M.get() == Collector;
    Base.Machines.push_back(std::move(LM));
  }

  // Pids are world-global and sequential: storing processes in pid order
  // is storing them in creation order, which is what replay must repeat
  // for the same pids to come back out.
  for (size_t MI = 0; MI < W.Machines.size(); ++MI)
    for (const auto &P : W.Machines[MI]->Processes) {
      LogProcess LP;
      LP.MachineIndex = static_cast<uint32_t>(MI);
      LP.Name = P->Name;
      LP.Pid = P->Pid;
      Base.Processes.push_back(std::move(LP));
    }
  std::sort(Base.Processes.begin(), Base.Processes.end(),
            [](const LogProcess &A, const LogProcess &B) {
              return A.Pid < B.Pid;
            });

  for (const auto &KV : W.services()) {
    LogService S;
    S.Service = KV.first;
    S.Pid = KV.second->Pid;
    Base.Services.push_back(S);
  }

  // Thread ids are per-process and sequential, so per-process order is
  // enough. At the first scheduling decision no instruction has run yet:
  // every live thread still sits at its entry with R0 = spawn argument.
  for (const auto &M : W.Machines)
    for (const auto &P : M->Processes)
      for (const auto &T : P->Threads) {
        if (T->exited())
          continue;
        LogThread LT;
        LT.Pid = P->Pid;
        LT.Tid = T->Id;
        LT.EntryPC = T->PC;
        LT.Arg = T->Regs[0];
        Base.Threads.push_back(LT);
      }
}

ExecutionLog ExecutionRecorder::snapshot() const {
  ExecutionLog L = Base;
  L.DroppedHead = Dropped;
  L.Entries.assign(Ring.begin(), Ring.end());
  return L;
}

size_t ExecutionRecorder::onSchedulePick(
    uint64_t Slice, const std::vector<SliceCandidate> &Cands,
    size_t Default) {
  captureGenesis();
  LogEntry E;
  E.Kind = LogEntryKind::Sched;
  E.A = Slice;
  E.B = (static_cast<uint64_t>(Cands.size()) << 32) |
        static_cast<uint32_t>(Default);
  E.C = Cands[Default].Pid;
  E.D = Cands[Default].Tid;
  E.E = candidateHash(Cands);
  push(std::move(E));
  return Default;
}

uint64_t ExecutionRecorder::onRand(uint64_t Pid, uint64_t Tid,
                                   uint64_t Value) {
  LogEntry E;
  E.Kind = LogEntryKind::Rand;
  E.A = Pid;
  E.B = Tid;
  E.C = Value;
  push(std::move(E));
  return Value;
}

unsigned ExecutionRecorder::onWireDelivery(unsigned Count) {
  LogEntry E;
  E.Kind = LogEntryKind::Wire;
  E.A = Count;
  push(std::move(E));
  return Count;
}

NetFaultAction ExecutionRecorder::onNetSend(uint64_t Src, uint64_t Dst,
                                            NetFaultAction Action) {
  LogEntry E;
  E.Kind = LogEntryKind::Net;
  E.A = Src;
  E.B = Dst;
  E.C = Action.Copies;
  E.D = Action.ExtraDelay;
  E.E = Action.Reordered ? 1 : 0;
  push(std::move(E));
  return Action;
}

void ExecutionRecorder::onFaultFired(size_t Index, const std::string &Note) {
  LogEntry E;
  E.Kind = LogEntryKind::Fired;
  E.A = Index;
  E.Note = Note;
  push(std::move(E));
}

void ExecutionRecorder::onSnapAnchor(uint64_t Pid, uint8_t Reason,
                                     uint16_t Detail, uint64_t Slice,
                                     std::vector<uint8_t> *LogOut) {
  // Post-mortem collection can run before any slice executed (an early
  // kill): the genesis must still be in the log.
  captureGenesis();
  uint64_t Timestamp = 0;
  if (D)
    for (Process *P : D->world().allProcesses())
      if (P->Pid == Pid) {
        Timestamp = P->Host->nowGlobal();
        break;
      }
  LogEntry E;
  E.Kind = LogEntryKind::Anchor;
  E.A = Pid;
  E.B = Reason;
  E.C = Detail;
  E.D = Slice;
  E.E = Timestamp;
  push(std::move(E));
  // The anchor entry is appended BEFORE serializing, so the embedded log
  // ends at exactly this snap's capture point.
  if (LogOut)
    *LogOut = serialized();
}

void ExecutionRecorder::onDeploy(Process &P, const Module &Orig,
                                 bool Instrument,
                                 const InstrumentOptions &Opts) {
  LogDeploy LD;
  LD.Pid = P.Pid;
  LD.Instrument = Instrument;
  LD.Image = Orig.serialize();
  LD.TilePathBits = Opts.Tile.PathBits;
  LD.TileHeadersAtCallReturns = Opts.Tile.HeadersAtCallReturns;
  LD.TileEveryBlockIsHeader = Opts.Tile.EveryBlockIsHeader;
  LD.TileMergeCallReturnHeaders = Opts.Tile.MergeCallReturnHeaders;
  LD.DagIdBase = Opts.DagIdBase;
  LD.TlsSlot = Opts.TlsSlot;
  LD.LineBoundaryBlocks = Opts.LineBoundaryBlocks;
  LD.ElideImpliedBits = Opts.ElideImpliedBits;
  Base.Deploys.push_back(std::move(LD));
}
