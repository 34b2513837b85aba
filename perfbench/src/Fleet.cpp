//===- perfbench/src/Fleet.cpp - The write path: fault to queryable snap --===//
//
// Part of the TraceBack reproduction project.
//
// Each round deploys the `tbtool serve` crasher pair on every machine with
// network transport on, runs the world (faults fire, group snaps fan
// out), pumps the network, drains the CollectorService into the store and
// runs a closed-loop single-client query mix. Every CheckpointEvery
// rounds the store is closed and reopened (checkpoint rewrite + paged
// open) and the mix is checked against scan. One investigation and one
// recorded reproduction per round keep the read and replay paths
// measured at a small, fixed share. The store starts with a backlog of
// small synthetic snaps several times the default page cache.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "collector/CollectorService.h"
#include "distributed/Transport.h"
#include "support/MD5.h"
#include "support/Random.h"
#include "support/Text.h"
#include "triage/Signature.h"

#include <algorithm>

using namespace perfbench;
using namespace traceback;

namespace {

constexpr unsigned Machines = 6;
constexpr unsigned CheckpointEvery = 6;
/// Synthetic backlog: ~4x the 2 MiB default checkpoint page cache.
constexpr unsigned BacklogSnaps = 40000;
constexpr size_t QueryTop = 100;
constexpr size_t MinSamples = 100;

class Fleet : public Workload {
public:
  explicit Fleet(const Options &O) : Workload(O), Rand(O.Seed ^ 0xf1ee7) {}

  const char *stepName() const override { return "round"; }
  uint64_t period() const override { return 12; }

  bool setup(std::string &Error) override {
    for (const Program &Pr : fleetApps(P.Opt.Seed)) {
      Apps.emplace_back();
      if (!P.build(Pr, Apps.back(), Error))
        return false;
    }
    if (!P.openStore(P.Opt.DataDir + "/store", Error))
      return false;
    CollectorOptions CO;
    CO.Shards = benchThreads();
    CO.Metrics = &P.CollectorReg;
    Service = std::make_unique<CollectorService>(*P.Store, CO);
    if (!seedBacklog(Error))
      return false;
    // One calibration round: the expected snap count, the keys the query
    // mix draws from, and the fleet's guest cycles (all deterministic).
    std::unique_ptr<Deployment> D;
    MetricsRegistry Reg;
    if (!deployRound(D, Reg, Error))
      return false;
    D->world().run();
    D->pumpNetwork();
    Service->drain();
    Service->detachTransport();
    Expected = D->snaps().size();
    if (Expected == 0 || Service->received() != Expected ||
        Service->ingested() != Expected) {
      Error = "calibration round lost snaps";
      return false;
    }
    P.TracedCycles = fleetCycles(*D);
    for (const BuiltProgram &A : Apps)
      P.NativeCycles += Machines * A.NativeCycles;
    for (const SnapFile &S : D->snaps()) {
      FaultSignature Sig = extractSignature(S);
      if (std::find(Kinds.begin(), Kinds.end(), Sig.Kind) == Kinds.end())
        Kinds.push_back(Sig.Kind);
      if (S.Reason == SnapReason::Unhandled)
        for (size_t A = 0; A < Apps.size(); ++A)
          if (S.ProcessName == Apps[A].Src.Name)
            AppFingerprint[A] = Sig.fingerprint();
      MaxTimestamp = std::max(MaxTimestamp, S.Timestamp);
    }
    if (!AppFingerprint[0] || !AppFingerprint[1]) {
      Error = "calibration round produced no crash snap";
      return false;
    }
    D.reset();
    // Setup ends on a paged store, like a collector after a restart.
    if (!P.checkpoint(0) || P.Failed != 0) {
      Error = "setup checkpoint failed";
      return false;
    }
    LiveBytes0 = P.Store->liveBytes();
    return true;
  }

  void step(uint64_t Round) override {
    MetricsRegistry Reg;
    std::unique_ptr<Deployment> D;
    uint64_t Received0 = Service->received();
    uint64_t Ingested0 = Service->ingested();
    uint64_t Errors0 = Service->errors();
    uint64_t Live0 = P.Store->liveEntries();
    uint64_t Dedup0 = P.Store->dedupHits();
    bool Checkpointed = false;
    {
      auto RoundSpan = P.T.span("round", Round);
      std::string Error;
      bool Deployed = false;
      {
        auto S = P.T.span("instrument.deploy", Round);
        Deployed = deployRound(D, Reg, Error);
      }
      P.Attempted += Expected;
      if (!Deployed) {
        Service->detachTransport();
        P.fail("deploy: " + Error);
        P.Failed += Expected - 1;
        return;
      }
      uint64_t RunStart = nowNs();
      {
        auto S = P.T.span("vm.run", Round);
        D->world().run();
      }
      {
        auto S = P.T.span("distributed.pump", Round);
        D->pumpNetwork();
      }
      {
        auto S = P.T.span("collector.drain", Round);
        Service->drain();
      }
      ++P.Attempted;
      if (uint64_t Cycles = fleetCycles(*D); Cycles != P.TracedCycles)
        P.fail(formatv("round %llu: guest cycles %llu, calibration %llu",
                       static_cast<unsigned long long>(Round),
                       static_cast<unsigned long long>(Cycles),
                       static_cast<unsigned long long>(P.TracedCycles)));
      Service->detachTransport();
      // Counted before the checkpoint: dedupHits() restarts at open.
      uint64_t Queryable = (P.Store->liveEntries() - Live0) +
                           (P.Store->dedupHits() - Dedup0);
      if (Round % CheckpointEvery == CheckpointEvery - 1)
        Checkpointed = P.checkpoint(Round);
      P.QueryableMs.add(nsToMs(nowNs() - RunStart));

      P.SnapsQueryable += Queryable;
      uint64_t Received = Service->received() - Received0;
      uint64_t Ingested = Service->ingested() - Ingested0;
      if (Received != Expected || Ingested != Expected ||
          D->snaps().size() != Expected || Queryable != Expected ||
          Service->errors() != Errors0) {
        // Every snap the round did not make queryable is a failed
        // operation; any other mismatch fails at least one.
        uint64_t Lost = Expected - std::min<uint64_t>(Queryable, Expected);
        P.fail(formatv("round %llu: expected %zu snaps, received %llu, "
                       "ingested %llu, queryable %llu",
                       static_cast<unsigned long long>(Round), Expected,
                       static_cast<unsigned long long>(Received),
                       static_cast<unsigned long long>(Ingested),
                       static_cast<unsigned long long>(Queryable)));
        P.Failed += std::max<uint64_t>(Lost, 1) - 1;
      }

      std::vector<SnapQuery> Mix = queryMix();
      for (const SnapQuery &Q : Mix)
        P.query(Q, Round);
      if (Checkpointed)
        for (const SnapQuery &Q : Mix)
          P.checkQueryMatchesScan(Q);

      // The two crashers differ in cost; an even split would put every
      // p50 on the boundary between them, so the SEGV app takes three
      // rounds in four.
      size_t App = Round % 4 == 3 ? 1 : 0;
      SnapQuery Inv;
      Inv.setFingerprint(AppFingerprint[App]);
      P.investigate(Inv, 1, Apps[App].Src, Round);
      Pipeline::ReproOptions RO;
      RO.Twin = false;
      P.reproduce(Apps[App], RO, Round);
    }
    if (P.T.Enabled)
      measureCodec(*D, Round);
    {
      auto S = P.T.span("vm.teardown", Round);
      D.reset();
    }
    P.DeploySums.add(Reg.snapshot());
  }

  bool sampled() const override {
    return P.QueryableMs.size() >= MinSamples &&
           P.InvestigationMs.size() >= MinSamples &&
           P.ReplayMs.size() >= MinSamples;
  }

  void report(double MeasuredS, MetricMap &E2E, MetricMap &Layer) override {
    reportShared(P, stepName(), MeasuredS, P.Store->liveBytes() - LiveBytes0,
                 P.SnapsQueryable, E2E, Layer);
  }

private:
  /// A fresh deployment of every app on every machine, network on, its
  /// collector endpoint attached to the service.
  bool deployRound(std::unique_ptr<Deployment> &D, MetricsRegistry &Reg,
                   std::string &Error) {
    D = std::make_unique<Deployment>();
    // Fresh per-round telemetry: snaps embed their deployment's metrics.
    D->Metrics = &Reg;
    D->Policy = P.Policy;
    D->enableNetworkTransport();
    Service->attachTransport(*D->collectorEndpoint());
    for (unsigned MI = 0; MI < Machines; ++MI) {
      Machine *M = D->addMachine(formatv("fleet%02u", MI));
      for (const BuiltProgram &A : Apps) {
        Process *Proc = M->createProcess(A.Src.Name);
        if (!D->deploy(*Proc, A.Mod, /*Instrument=*/true, Error) ||
            !Proc->start("main"))
          return false;
      }
    }
    return true;
  }

  /// Guest cycles of every app process of a round (deterministic).
  uint64_t fleetCycles(Deployment &D) const {
    uint64_t Cycles = 0;
    for (const auto &M : D.world().Machines)
      for (const auto &Proc : M->Processes)
        for (const BuiltProgram &A : Apps)
          if (Proc->Name == A.Src.Name)
            Cycles += Proc->CyclesUsed;
    return Cycles;
  }

  /// Small synthetic crash snaps, appended straight to the store so the
  /// checkpoint and the query posting lists start at collector scale.
  /// Their modules are not the apps', so investigations never load them.
  bool seedBacklog(std::string &Error) {
    Rng R(P.Opt.Seed ^ 0xbac1106);
    std::vector<SnapModuleInfo> Mods(8);
    for (unsigned I = 0; I < Mods.size(); ++I) {
      Mods[I].Name = formatv("legacy%u", I);
      Mods[I].Checksum = MD5::hash(Mods[I].Name.data(), Mods[I].Name.size());
      Mods[I].Instrumented = true;
    }
    for (unsigned I = 0; I < BacklogSnaps; ++I) {
      SnapFile S;
      S.Reason = SnapReason::Unhandled;
      unsigned Mod = static_cast<unsigned>(R.below(Mods.size()));
      S.Modules.push_back(Mods[Mod]);
      S.ProcessName = Mods[Mod].Name;
      unsigned MI = static_cast<unsigned>(R.below(Machines));
      S.MachineName = formatv("fleet%02u", MI);
      S.Pid = 1 + R.below(64);
      S.Timestamp = R.below(1u << 20);
      S.FaultThread = 1;
      S.FaultModuleKey = Mods[Mod].Checksum.low64();
      S.FaultCodeValue = static_cast<uint16_t>(1 + R.below(2));
      S.FaultOffset = static_cast<uint32_t>(R.below(4096));
      SnapStore::AppendResult AR;
      if (!P.Store->appendSnap(S, MI + 1, AR, &Error))
        return false;
    }
    return true;
  }

  /// The five-query mix: module, kind, fingerprint, machine + window,
  /// pure window.
  std::vector<SnapQuery> queryMix() {
    std::vector<SnapQuery> Mix(5);
    Mix[0].setModule(Apps[Rand.below(Apps.size())].Src.Name);
    Mix[1].setKind(Kinds[Rand.below(Kinds.size())]);
    Mix[2].setFingerprint(AppFingerprint[Rand.below(2)]);
    uint64_t Span = std::max<uint64_t>(MaxTimestamp, 1u << 20);
    uint64_t Since = Rand.below(Span);
    Mix[3].setMachine(formatv("fleet%02u",
                              static_cast<unsigned>(Rand.below(Machines))));
    Mix[3].setWindow(Since, Since + Span / 4);
    Since = Rand.below(Span);
    Mix[4].setWindow(Since, Since + Span / 16);
    for (SnapQuery &Q : Mix)
      Q.Top = QueryTop;
    return Mix;
  }

  /// Traced rounds only, outside the round's span: v4 encode and decode
  /// of every snap the round delivered.
  void measureCodec(Deployment &D, uint64_t Round) {
    uint64_t T0 = nowNs();
    std::vector<std::vector<uint8_t>> Images;
    Images.reserve(D.snaps().size());
    {
      auto S = P.T.span("runtime.snap_encode", Round);
      for (const SnapFile &Sn : D.snaps())
        Images.push_back(Sn.serialize());
    }
    auto S = P.T.span("runtime.snap_decode", Round);
    for (const std::vector<uint8_t> &Img : Images) {
      SnapFile Back;
      if (!SnapFile::deserialize(Img, Back))
        P.fail("a delivered snap does not decode");
    }
    P.ExcludedNs += nowNs() - T0;
  }

  std::vector<BuiltProgram> Apps;
  std::unique_ptr<CollectorService> Service;
  size_t Expected = 0;
  std::vector<std::string> Kinds;
  uint64_t AppFingerprint[2] = {0, 0};
  uint64_t MaxTimestamp = 0;
  uint64_t LiveBytes0 = 0;
  Rng Rand;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeFleet(const Options &O) {
  return std::make_unique<Fleet>(O);
}
