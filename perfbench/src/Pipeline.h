//===- perfbench/src/Pipeline.h - Shared fault-to-diagnosis stages -*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stages every workload strings together, each call into a layer's
/// public function wrapped in a span:
///
///   build        lang compile, instrument (mapfile), native baseline run
///   query        one SnapStore::query, drained
///   checkpoint   SnapStore::close (checkpoint rewrite) + paged open
///   investigate  query -> loadSnap top k -> reconstruct -> signature ->
///                cluster -> renderFaultView
///   reproduce    unrecorded twin run, recorded run, optional store
///                append, verifyReplay
///
/// Every stage checks its own output and counts a failed check as a
/// failed operation; nothing is skipped.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Programs.h"
#include "Tracer.h"

#include "collector/SnapStore.h"
#include "core/Session.h"
#include "reconstruct/Reconstructor.h"
#include "support/ThreadPool.h"
#include "triage/Clusterer.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DataDir; ///< Scratch directory for stores and span dumps.
};

/// Threads any workload may use: store shards, collector ingest shards,
/// reconstruct pool jobs. Never more than the host has.
unsigned benchThreads();

/// One program, compiled and measured natively.
struct BuiltProgram {
  Program Src;
  traceback::Module Mod;
  uint64_t NativeCycles = 0;
  traceback::InstrumentStats Stats;
};

struct MetricValue {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, MetricValue>;

class Pipeline {
public:
  explicit Pipeline(const Options &O);

  // --- Setup ---------------------------------------------------------------

  /// Compiles \p P, instruments it (registering its mapfile) and runs the
  /// original module once natively for the guest-cycle baseline.
  bool build(const Program &P, BuiltProgram &Out, std::string &Error);
  /// Opens (creating) the paged store at \p Dir.
  bool openStore(const std::string &Dir, std::string &Error);
  /// Closes the store (checkpoint rewrite) and reopens it paged.
  bool checkpoint(uint64_t OpId);
  /// Paged store, benchThreads() shards, instruments in CollectorReg.
  traceback::SnapStoreOptions storeOptions();

  // --- Stages --------------------------------------------------------------

  /// One indexed query, drained; returns the matching ids.
  std::vector<uint64_t> query(const traceback::SnapQuery &Q, uint64_t OpId);
  /// The query ≡ scan oracle: one operation, failed on any difference.
  void checkQueryMatchesScan(const traceback::SnapQuery &Q);
  /// One investigation of \p Expect's planted fault through \p Q; loads
  /// the top \p K matches. One operation.
  void investigate(const traceback::SnapQuery &Q, size_t K,
                   const Program &Expect, uint64_t OpId);

  struct ReproOptions {
    bool Twin = true;   ///< Run the unrecorded twin first.
    bool Store = false; ///< Append the recorded snap (queryable_ms).
    bool Replay = true; ///< verifyReplay the recorded snap.
    /// Count the twin's guest cycles toward probe_overhead_pct.
    bool FirstPass = false;
  };
  /// Runs \p P instrumented with recording on. One operation.
  void reproduce(const BuiltProgram &P, const ReproOptions &RO,
                 uint64_t OpId);

  /// Called with the run's snap and World::run start time, before the
  /// deployment is torn down.
  using AfterRunFn = std::function<void(traceback::SnapFile &, uint64_t)>;
  /// Runs \p M in a fresh single-machine deployment (its registry summed
  /// into DeploySums). Returns guest cycles of the process (0 on error);
  /// fills \p Snap with the first snap when non-null. \p Ns receives
  /// World::run time.
  uint64_t runSingle(const traceback::Module &M, bool Instrument,
                     bool Record, traceback::SnapFile *Snap, uint64_t &Ns,
                     std::string &Error, uint64_t OpId = 0,
                     const AfterRunFn &BeforeTeardown = nullptr);

  /// Records a failed check (first few go to stderr).
  void fail(const std::string &Why);

  /// Applied to every deployment the pipeline creates.
  traceback::RtPolicy Policy;

  Tracer T;
  const Options &Opt;

  /// Store + collector instruments (kept out of the global registry:
  /// snaps embed their producer's telemetry).
  traceback::MetricsRegistry CollectorReg;
  /// Reconstruct + triage instruments.
  traceback::MetricsRegistry AnalysisReg;
  /// Summed registries of every short-lived deployment.
  InstrumentSums DeploySums;

  std::unique_ptr<traceback::SnapStore> Store;
  std::string StoreDir;
  traceback::MapFileStore Maps;
  traceback::ThreadPool Pool;
  /// One reconstructor for the run: its decode cache is shared by every
  /// investigation.
  traceback::Reconstructor Recon;
  traceback::SignatureClusterer Clusterer;
  /// Cluster index -> the planted label of the snap that opened it.
  std::vector<std::string> ClusterLabel;

  // --- Samples and totals --------------------------------------------------

  Samples QueryMs, InvestigationMs, QueryableMs, RecordedRunMs, ReplayMs;
  Samples TwinRunMs, ReplayRatio;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t Queries = 0, QueryRows = 0;
  uint64_t SnapsQueryable = 0;
  uint64_t LoggedSnaps = 0, LogBytes = 0;
  uint64_t LogEntries[8] = {};
  uint64_t Divergences = 0;
  uint64_t Reproductions = 0;
  /// Guest cycles of the first full pass of twin runs, and the same
  /// programs' native cycles (probe_overhead_pct).
  uint64_t TracedCycles = 0, NativeCycles = 0;
  /// Guest cycles of each program's first twin run.
  std::map<const BuiltProgram *, uint64_t> TwinCycles;
  uint64_t CompileNs = 0;
  /// Work inside a step that is the benchmark's own (correctness oracles,
  /// traced-only codec timing): kept out of the measured time.
  uint64_t ExcludedNs = 0;
  traceback::InstrumentStats ProbeTotals;

private:
  /// Clusters \p Sig; false when its cluster was opened by a snap of
  /// another planted fault than \p Label.
  bool clusterAs(const traceback::FaultSignature &Sig,
                 const std::string &Label);
};

/// A workload: setup once, then steps until the clock runs out.
class Workload {
public:
  explicit Workload(const Options &O) : P(O) {}
  virtual ~Workload() = default;
  virtual bool setup(std::string &Error) = 0;
  /// One measured step: a round, an investigation or a module.
  virtual void step(uint64_t Index) = 0;
  /// True once every timed metric has its minimum sample count and any
  /// deterministic first pass is complete.
  virtual bool sampled() const = 0;
  /// Fills the workload's end-to-end and per-layer metrics.
  virtual void report(double MeasuredS, MetricMap &E2E,
                      MetricMap &Layer) = 0;
  /// Name of the per-step span ("round", "investigation", "module").
  virtual const char *stepName() const = 0;
  /// Length of the step schedule (checkpoint, replay and app rotation):
  /// the traced run alternates blocks of this many steps, so traced and
  /// untraced steps see the same mix.
  virtual uint64_t period() const = 0;

  Pipeline P;
};

std::unique_ptr<Workload> makeFleet(const Options &O);
std::unique_ptr<Workload> makeDiagnose(const Options &O);
std::unique_ptr<Workload> makeRecordReplay(const Options &O);

/// The end-to-end metrics every workload reports from the pipeline's
/// shared samples, plus the shared per-layer metrics. \p StoreGrowth is
/// the live-byte growth of the store over \p SnapsIngested snaps; span
/// times are summed per \p StepName step.
void reportShared(const Pipeline &P, const char *StepName, double MeasuredS,
                  uint64_t StoreGrowth, uint64_t SnapsIngested, MetricMap &E2E,
                  MetricMap &Layer);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
