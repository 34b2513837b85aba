//===- perfbench/src/Pipeline.cpp - Shared fault-to-diagnosis stages ------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "lang/CodeGen.h"
#include "reconstruct/Views.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "support/Text.h"
#include "triage/Signature.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace perfbench;
using namespace traceback;

unsigned perfbench::benchThreads() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, Hw));
}

Pipeline::Pipeline(const Options &O)
    : Opt(O), Pool(benchThreads()), Recon(Maps, &AnalysisReg),
      Clusterer(ClusterOptions(), &AnalysisReg) {}

void Pipeline::fail(const std::string &Why) {
  ++Failed;
  if (Failed <= 5)
    std::fprintf(stderr, "perfbench: check failed: %s\n", Why.c_str());
}

bool Pipeline::build(const Program &P, BuiltProgram &Out,
                     std::string &Error) {
  Out.Src = P;
  {
    auto S = T.span("lang.compile");
    uint64_t T0 = nowNs();
    bool Ok = minilang::compileMiniLang(P.Source, P.File, P.Name,
                                        Technology::Native, Out.Mod, Error);
    CompileNs += nowNs() - T0;
    if (!Ok)
      return false;
  }
  {
    // Instrument once up front: registers the mapfile every later
    // investigation reconstructs against, and yields the probe counts.
    auto S = T.span("instrument.instrument");
    MetricsRegistry Scratch;
    Deployment D;
    D.Metrics = &Scratch;
    Module Instr;
    if (!D.instrumentOnly(Out.Mod, InstrumentOptions(), Instr, Error,
                          &Out.Stats))
      return false;
    for (const MapFile &M : D.maps().all())
      Maps.add(M);
  }
  ProbeTotals.NumHeavyProbes += Out.Stats.NumHeavyProbes;
  ProbeTotals.NumLightProbes += Out.Stats.NumLightProbes;
  ProbeTotals.NumElidedProbes += Out.Stats.NumElidedProbes;
  uint64_t Ns = 0;
  Out.NativeCycles = runSingle(Out.Mod, /*Instrument=*/false,
                               /*Record=*/false, nullptr, Ns, Error);
  return Out.NativeCycles != 0;
}

bool Pipeline::openStore(const std::string &Dir, std::string &Error) {
  StoreDir = Dir;
  Store = std::make_unique<SnapStore>();
  auto S = T.span("collector.open");
  return Store->open(Dir, storeOptions(), Error);
}

SnapStoreOptions Pipeline::storeOptions() {
  SnapStoreOptions SO;
  SO.Shards = benchThreads();
  SO.Metrics = &CollectorReg;
  return SO;
}

bool Pipeline::checkpoint(uint64_t OpId) {
  {
    auto S = T.span("collector.checkpoint", OpId);
    Store->close();
  }
  std::string Error;
  bool Ok = false;
  {
    auto S = T.span("collector.open", OpId);
    Ok = Store->open(StoreDir, storeOptions(), Error);
  }
  if (!Ok) {
    fail("reopen after checkpoint: " + Error);
    return false;
  }
  if (!Store->openedPaged()) {
    fail("reopen after checkpoint did not use the checkpoint");
    return false;
  }
  return true;
}

std::vector<uint64_t> Pipeline::query(const SnapQuery &Q, uint64_t OpId) {
  std::vector<uint64_t> Ids;
  auto S = T.span("collector.query", OpId);
  uint64_t T0 = nowNs();
  SnapStore::Cursor C = Store->query(Q);
  while (const SnapStoreEntry *E = C.next())
    Ids.push_back(E->Id);
  QueryMs.add(nsToMs(nowNs() - T0));
  ++Queries;
  QueryRows += Ids.size();
  return Ids;
}

void Pipeline::checkQueryMatchesScan(const SnapQuery &Q) {
  ++Attempted;
  // The oracle's full scan is the benchmark's own work, not the
  // pipeline's: spanned, and kept out of the measured time.
  auto S = T.span("check.query_vs_scan");
  uint64_t T0 = nowNs();
  std::vector<uint64_t> ByIndex, ByScan;
  SnapStore::Cursor C = Store->query(Q);
  while (const SnapStoreEntry *E = C.next())
    ByIndex.push_back(E->Id);
  SnapStore::Cursor Sc = Store->scan(Q);
  while (const SnapStoreEntry *E = Sc.next())
    ByScan.push_back(E->Id);
  if (ByIndex != ByScan)
    fail(formatv("query != scan (%zu vs %zu rows)", ByIndex.size(),
                 ByScan.size()));
  ExcludedNs += nowNs() - T0;
}

bool Pipeline::clusterAs(const FaultSignature &Sig, const std::string &Label) {
  size_t Idx = 0;
  {
    auto S = T.span("triage.cluster");
    // No member label: the clusterer would keep one string per add.
    Idx = Clusterer.add(Sig);
  }
  if (Idx >= ClusterLabel.size())
    ClusterLabel.resize(Idx + 1);
  if (ClusterLabel[Idx].empty())
    ClusterLabel[Idx] = Label;
  return ClusterLabel[Idx] == Label;
}

/// True when the last source position the fault view names (the
/// faulting statement, at the bottom of the call tree) is \p File:\p Line.
static bool viewNamesLine(const std::string &View, const std::string &File,
                          unsigned Line) {
  size_t At = View.rfind(File + ":");
  if (At == std::string::npos)
    return false;
  return std::strtoul(View.c_str() + At + File.size() + 1, nullptr, 10) ==
         Line;
}

void Pipeline::investigate(const SnapQuery &Q, size_t K,
                           const Program &Expect, uint64_t OpId) {
  ++Attempted;
  auto S = T.span("investigate", OpId);
  uint64_t T0 = nowNs();
  SnapQuery QK = Q;
  QK.Top = K;
  std::vector<uint64_t> Ids = query(QK, OpId);
  if (Ids.empty()) {
    fail("investigation of " + Expect.Name + " found no snap");
    return;
  }
  std::vector<SnapFile> Snaps(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I) {
    auto L = T.span("collector.load", OpId);
    const SnapStoreEntry *E = Store->entry(Ids[I]);
    if (!E || !Store->loadSnap(*E, Snaps[I])) {
      fail("loadSnap failed");
      return;
    }
  }
  bool Clustered = true;
  std::string View;
  for (size_t I = 0; I < Snaps.size(); ++I) {
    ReconstructedTrace Trace;
    {
      auto R = T.span("reconstruct.reconstruct", OpId);
      Trace = Recon.reconstruct(Snaps[I], &Pool);
    }
    FaultSignature Sig;
    {
      auto G = T.span("triage.signature", OpId);
      Sig = extractSignature(Snaps[I], Trace);
    }
    Clustered &= clusterAs(Sig, Expect.Name);
    if (I == 0) {
      auto V = T.span("reconstruct.render", OpId);
      View = renderFaultView(Snaps[I], Trace);
    }
  }
  InvestigationMs.add(nsToMs(nowNs() - T0));
  if (!Clustered)
    fail("a snap of " + Expect.Name + " clustered with another fault");
  if (!viewNamesLine(View, Expect.File, Expect.AnchorLine))
    fail(formatv("fault view of %s does not end on %s:%u",
                 Expect.Name.c_str(), Expect.File.c_str(),
                 Expect.AnchorLine));
}

uint64_t Pipeline::runSingle(const Module &M, bool Instrument, bool Record,
                             SnapFile *Snap, uint64_t &Ns,
                             std::string &Error, uint64_t OpId,
                             const AfterRunFn &BeforeTeardown) {
  MetricsRegistry Reg;
  // The recorder outlives the deployment it is attached to.
  ExecutionRecorder Rec;
  auto D = std::make_unique<Deployment>();
  D->Metrics = &Reg;
  D->Policy = Policy;
  Process *Proc = nullptr;
  {
    auto S = T.span("instrument.deploy", OpId);
    if (Record) {
      D->Policy.RecordExecution = true;
      Rec.attach(*D);
    }
    Machine *Host = D->addMachine("host");
    Proc = Host->createProcess(M.Name);
    if (!D->deploy(*Proc, M, Instrument, Error) || !Proc->start("main"))
      return 0;
  }
  World::RunResult R = World::RunResult::Idle;
  uint64_t T0 = 0;
  {
    auto S = T.span(!Instrument ? "vm.run_native"
                    : Record    ? "vm.run_recorded"
                                : "vm.run",
                    OpId);
    T0 = nowNs();
    R = D->world().run(2'000'000'000ull);
    Ns = nowNs() - T0;
  }
  if (R != World::RunResult::AllExited) {
    Error = M.Name + " did not run to completion";
    return 0;
  }
  uint64_t Cycles = Proc->CyclesUsed;
  if (Snap) {
    if (D->snaps().empty()) {
      Error = M.Name + " produced no snap";
      return 0;
    }
    *Snap = std::move(D->snaps().front());
    if (BeforeTeardown)
      BeforeTeardown(*Snap, T0);
  }
  {
    auto S = T.span("vm.teardown", OpId);
    D.reset();
  }
  DeploySums.add(Reg.snapshot());
  return Cycles;
}

void Pipeline::reproduce(const BuiltProgram &BP, const ReproOptions &RO,
                         uint64_t OpId) {
  ++Attempted;
  ++Reproductions;
  auto S = T.span("reproduce", OpId);
  std::string Error;
  uint64_t TwinNs = 0, RecNs = 0;
  if (RO.Twin) {
    uint64_t Cycles = runSingle(BP.Mod, /*Instrument=*/true,
                                /*Record=*/false, nullptr, TwinNs, Error,
                                OpId);
    if (Cycles == 0) {
      fail("twin run: " + Error);
      return;
    }
    TwinRunMs.add(nsToMs(TwinNs));
    if (RO.FirstPass) {
      TracedCycles += Cycles;
      NativeCycles += BP.NativeCycles;
    }
    // Guest cycles are deterministic: every rerun of a program must match
    // its first run exactly, or probe_overhead_pct could not repeat.
    auto [It, New] = TwinCycles.emplace(&BP, Cycles);
    if (!New && It->second != Cycles)
      fail(formatv("%s: guest cycles %llu, first run %llu",
                   BP.Src.Name.c_str(), static_cast<unsigned long long>(Cycles),
                   static_cast<unsigned long long>(It->second)));
  }

  SnapFile Snap;
  bool Stored = true;
  std::string AppendError;
  auto Append = [&](SnapFile &Sn, uint64_t RunStart) {
    if (!RO.Store)
      return;
    SnapStore::AppendResult AR;
    {
      auto A = T.span("collector.append", OpId);
      Stored = Store->appendSnap(Sn, 0, AR, &AppendError);
    }
    if (Stored) {
      ++SnapsQueryable;
      QueryableMs.add(nsToMs(nowNs() - RunStart));
    }
  };
  uint64_t Cycles = runSingle(BP.Mod, /*Instrument=*/true, /*Record=*/true,
                              &Snap, RecNs, Error, OpId, Append);
  if (Cycles == 0) {
    fail("recorded run: " + Error);
    return;
  }
  RecordedRunMs.add(nsToMs(RecNs));
  if (!Stored) {
    fail("append of a recorded snap: " + AppendError);
    return;
  }

  ExecutionLog Log;
  if (Snap.ExecLog.empty() || !ExecutionLog::deserialize(Snap.ExecLog, Log)) {
    fail("recorded snap of " + BP.Src.Name + " carries no execution log");
    return;
  }
  ++LoggedSnaps;
  LogBytes += Snap.ExecLog.size();
  for (const LogEntry &E : Log.Entries)
    ++LogEntries[static_cast<unsigned>(E.Kind) & 7];

  if (!RO.Replay)
    return;
  ReplayVerdict V;
  uint64_t T0 = nowNs();
  {
    auto R = T.span("replay.verify", OpId);
    V = verifyReplay(Snap, Log);
  }
  uint64_t VerifyNs = nowNs() - T0;
  ReplayMs.add(nsToMs(VerifyNs));
  ReplayRatio.add(static_cast<double>(VerifyNs) /
                  static_cast<double>(std::max<uint64_t>(RecNs, 1)));
  Divergences += V.Divergences.size();
  if (!V.Ok || !V.Divergences.empty())
    fail(formatv("replay of %s: ok=%d, %zu divergence(s)%s%s",
                 BP.Src.Name.c_str(), V.Ok ? 1 : 0, V.Divergences.size(),
                 V.Error.empty() ? "" : ": ", V.Error.c_str()));
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

namespace {

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

/// Per-layer time of span \p Name: for each step, the summed duration of
/// its \p Name spans; spans outside any step count one by one. Returns
/// the median over those values, in ms.
double layerMs(const Tracer &T, const char *StepName, const char *Name) {
  const std::vector<Span> &Spans = T.spans();
  std::vector<int32_t> Root(Spans.size(), -1);
  std::map<int32_t, double> PerStep;
  Samples Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (std::strcmp(S.Name, StepName) == 0 && S.Parent < 0)
      Root[I] = static_cast<int32_t>(I);
    else if (S.Parent >= 0)
      Root[I] = Root[S.Parent];
    if (std::strcmp(S.Name, Name) != 0)
      continue;
    double Ms = nsToMs(S.EndNs - S.StartNs);
    if (Root[I] >= 0)
      PerStep[Root[I]] += Ms;
    else
      Out.add(Ms);
  }
  for (const auto &[Step, Ms] : PerStep)
    Out.add(Ms);
  return Out.median();
}

} // namespace

void perfbench::reportShared(const Pipeline &P, const char *StepName,
                             double MeasuredS, uint64_t StoreGrowth,
                             uint64_t SnapsIngested, MetricMap &E2E,
                             MetricMap &Layer) {
  E2E["snaps_per_s"] = {ratio(P.SnapsQueryable, MeasuredS), "snaps/s"};
  E2E["queryable_ms_p50"] = {P.QueryableMs.pct(50), "ms"};
  E2E["queryable_ms_p90"] = {P.QueryableMs.pct(90), "ms"};
  E2E["query_ms_p50"] = {P.QueryMs.pct(50), "ms"};
  E2E["query_ms_p90"] = {P.QueryMs.pct(90), "ms"};
  E2E["store_bytes_per_snap"] = {ratio(StoreGrowth, SnapsIngested), "B"};
  E2E["investigation_ms_p50"] = {P.InvestigationMs.pct(50), "ms"};
  E2E["investigation_ms_p90"] = {P.InvestigationMs.pct(90), "ms"};
  E2E["probe_overhead_pct"] = {
      100.0 * (ratio(P.TracedCycles, P.NativeCycles) - 1.0), "%"};
  E2E["recorded_run_ms_p50"] = {P.RecordedRunMs.pct(50), "ms"};
  E2E["recorded_run_ms_p90"] = {P.RecordedRunMs.pct(90), "ms"};
  E2E["replay_ms_p50"] = {P.ReplayMs.pct(50), "ms"};
  E2E["replay_ms_p90"] = {P.ReplayMs.pct(90), "ms"};
  E2E["log_bytes_per_snap"] = {ratio(P.LogBytes, P.LoggedSnaps), "B"};

  const Tracer &T = P.T;
  auto Ms = [&](const char *Metric, const char *Span) {
    Layer[Metric] = {layerMs(T, StepName, Span), "ms"};
  };
  auto Count = [&](const char *Metric, double V) {
    Layer[Metric] = {V, "count"};
  };
  const InstrumentSums &D = P.DeploySums;
  InstrumentSums C, A;
  C.add(P.CollectorReg.snapshot());
  A.add(P.AnalysisReg.snapshot());

  // instrument + lang
  Ms("instrument.deploy_ms", "instrument.deploy");
  Count("instrument.heavy_probes", P.ProbeTotals.NumHeavyProbes);
  Count("instrument.light_emitted", P.ProbeTotals.NumLightProbes);
  Count("instrument.light_elided", P.ProbeTotals.NumElidedProbes);
  Layer["lang.compile_ms"] = {nsToMs(P.CompileNs), "ms"};
  // vm + runtime
  Ms("vm.run_ms", "vm.run");
  Count("vm.guest_cycles_native", static_cast<double>(P.NativeCycles));
  Count("vm.guest_cycles_traced", static_cast<double>(P.TracedCycles));
  Count("runtime.words_appended", D.counter("runtime.words_appended"));
  Count("runtime.snaps_taken", D.counter("runtime.snaps_taken"));
  Layer["runtime.snap_latency_us"] = {D.histMean("runtime.snap_latency_us"),
                                      "us"};
  Count("runtime.buffer_wraps", D.counter("runtime.buffer_wraps"));
  Ms("runtime.snap_encode_ms", "runtime.snap_encode");
  Ms("runtime.snap_decode_ms", "runtime.snap_decode");
  // distributed
  Ms("distributed.pump_ms", "distributed.pump");
  for (const char *N :
       {"daemon.net.frames_sent", "daemon.net.frames_retried",
        "daemon.net.acks_sent", "daemon.net.dups_discarded",
        "daemon.group_snap_fanout", "daemon.ingest.spilled",
        "daemon.ingest.overflow_inline"})
    Count(N, D.counter(N));
  Layer["distributed.frames_per_snap"] = {
      ratio(D.counter("daemon.net.frames_sent"),
            C.counter("collector.ingest.received")),
      "frames/snap"};
  // collector
  Ms("collector.drain_ms", "collector.drain");
  Ms("collector.checkpoint_ms", "collector.checkpoint");
  Ms("collector.open_ms", "collector.open");
  Ms("collector.query_ms", "collector.query");
  Layer["collector.rows_per_query"] = {ratio(P.QueryRows, P.Queries),
                                       "rows"};
  Ms("collector.load_ms", "collector.load");
  for (const char *N :
       {"collector.store.appends", "collector.store.dedup_hits",
        "collector.store.page.hits", "collector.store.page.misses",
        "collector.store.page.evictions"})
    Count(N, C.counter(N));
  Layer["store.bytes_resident"] = {
      static_cast<double>(MetricsRegistry::global().gauge(
                              "store.bytes_resident")
                              .value()),
      "B"};
  Layer["collector.page_hit_ratio"] = {
      ratio(C.counter("collector.store.page.hits"),
            C.counter("collector.store.page.hits") +
                C.counter("collector.store.page.misses")),
      "ratio"};
  // reconstruct
  Ms("reconstruct.ms", "reconstruct.reconstruct");
  Ms("reconstruct.render_ms", "reconstruct.render");
  for (const char *N : {"reconstruct.records", "reconstruct.cache_hits",
                        "reconstruct.cache_misses"})
    Count(N, A.counter(N));
  Layer["reconstruct.cache_hit_ratio"] = {
      ratio(A.counter("reconstruct.cache_hits"),
            A.counter("reconstruct.cache_hits") +
                A.counter("reconstruct.cache_misses")),
      "ratio"};
  for (const char *N : {"reconstruct.phase_recover_us",
                        "reconstruct.phase_build_us",
                        "reconstruct.phase_merge_us"})
    Layer[N] = {A.histMean(N), "us"};
  // triage
  Ms("triage.signature_ms", "triage.signature");
  Ms("triage.cluster_ms", "triage.cluster");
  for (const char *N : {"triage.exact_hits", "triage.near_hits",
                        "triage.clusters"})
    Count(N, A.counter(N));
  // replay
  Ms("replay.verify_ms", "replay.verify");
  Layer["replay.wall_ratio"] = {P.ReplayRatio.median(), "ratio"};
  Layer["replay.record_overhead_pct"] = {
      P.TwinRunMs.size() == 0
          ? 0.0
          : 100.0 * (ratio(P.RecordedRunMs.median(), P.TwinRunMs.median()) -
                     1.0),
      "%"};
  const char *Kinds[] = {"", "sched", "rand", "wire", "net", "anchor"};
  for (unsigned K = 1; K <= 5; ++K)
    Count(formatv("replay.log_entries.%s", Kinds[K]).c_str(),
          static_cast<double>(P.LogEntries[K]));
  Count("replay.divergences", static_cast<double>(P.Divergences));
}
