//===- perfbench/src/Diagnose.cpp - The read path after a fault -----------===//
//
// Part of the TraceBack reproduction project.
//
// Setup fills a store with crash snaps of seeded deep-trace programs, each
// ending in one planted fault (its label), several source variants per
// fault; it ends with a paged reopen. The store fits the page cache.
//
// The measured loop is closed, with one client: each investigation picks
// a fault, skewed so a few faults recur, queries its kind, loads the top
// k snaps, reconstructs them on a pool sharing one decode cache, extracts
// signatures, clusters them and renders the fault view. Every
// ReproduceEvery investigations one program is reproduced (twin run,
// recorded run appended to the store, replay), round-robin over the
// programs, so the write and replay paths are measured at a small share.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "support/Random.h"
#include "triage/Signature.h"

using namespace perfbench;
using namespace traceback;

namespace {

constexpr unsigned Faults = 8;
constexpr unsigned Variants = 3;
constexpr unsigned LoopIters = 3000;
constexpr size_t TopK = Variants;
constexpr unsigned ReproduceEvery = 4;
constexpr size_t MinSamples = 100;
/// A deep-trace replay costs a few hundred ms: the reproduction path gets
/// a smaller minimum than the investigations it rides along with.
constexpr size_t MinReproductions = 25;

class Diagnose : public Workload {
public:
  explicit Diagnose(const Options &O) : Workload(O), Rand(O.Seed ^ 0xd1a6) {
    // Deep rings: each crash snap decodes tens of thousands of records.
    P.Policy.BufferBytes = 256 * 1024;
  }

  const char *stepName() const override { return "investigation"; }
  uint64_t period() const override { return ReproduceEvery; }

  bool setup(std::string &Error) override {
    for (const Program &Pr :
         plantedFaults(P.Opt.Seed, Faults, Variants, LoopIters)) {
      Programs.emplace_back();
      if (!P.build(Pr, Programs.back(), Error))
        return false;
    }
    if (!P.openStore(P.Opt.DataDir + "/store", Error))
      return false;
    Kinds.resize(Faults);
    for (size_t I = 0; I < Programs.size(); ++I) {
      SnapFile Snap;
      uint64_t Ns = 0;
      if (!P.runSingle(Programs[I].Mod, /*Instrument=*/true,
                       /*Record=*/false, &Snap, Ns, Error))
        return false;
      Kinds[I / Variants] = extractSignature(Snap).Kind;
      SnapStore::AppendResult AR;
      if (!P.Store->appendSnap(Snap, 0, AR, &Error))
        return false;
    }
    // Zipf(1) over the faults: a few recur, the rest are rare.
    double Sum = 0;
    for (unsigned F = 0; F < Faults; ++F)
      Weights.push_back(Sum += 1.0 / (F + 1));
    if (!P.checkpoint(0)) {
      Error = "setup reopen failed";
      return false;
    }
    LiveBytes0 = P.Store->liveBytes();
    return true;
  }

  void step(uint64_t Index) override {
    auto S = P.T.span("investigation", Index);
    unsigned Fault = pickFault();
    SnapQuery Q;
    Q.setKind(Kinds[Fault]);
    P.investigate(Q, TopK, Programs[Fault * Variants].Src, Index);
    if (Index % ReproduceEvery == 0) {
      uint64_t N = P.Reproductions;
      Pipeline::ReproOptions RO;
      RO.Store = true;
      RO.FirstPass = N < Programs.size();
      P.reproduce(Programs[N % Programs.size()], RO, Index);
    }
  }

  bool sampled() const override {
    return P.InvestigationMs.size() >= MinSamples &&
           P.ReplayMs.size() >= MinReproductions &&
           P.Reproductions >= Programs.size();
  }

  void report(double MeasuredS, MetricMap &E2E, MetricMap &Layer) override {
    reportShared(P, stepName(), MeasuredS, P.Store->liveBytes() - LiveBytes0,
                 P.SnapsQueryable, E2E, Layer);
  }

private:
  unsigned pickFault() {
    double X = Rand.unit() * Weights.back();
    unsigned F = 0;
    while (F + 1 < Weights.size() && Weights[F] < X)
      ++F;
    return F;
  }

  std::vector<BuiltProgram> Programs; ///< Fault-major, Variants each.
  std::vector<std::string> Kinds;     ///< Per fault.
  std::vector<double> Weights;        ///< Cumulative pick weights.
  uint64_t LiveBytes0 = 0;
  Rng Rand;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeDiagnose(const Options &O) {
  return std::make_unique<Diagnose>(O);
}
