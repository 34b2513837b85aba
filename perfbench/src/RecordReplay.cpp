//===- perfbench/src/RecordReplay.cpp - The reproduction path -------------===//
//
// Part of the TraceBack reproduction project.
//
// bench_replay's fleet of generated request-loop modules (branchy handler,
// rand(), preemption, snap(1) at the end). Setup runs every module once
// natively, as the guest-cycle baseline. Each measured step takes the next
// module round-robin and runs it instrumented twice, interleaved: once
// with recording off, once with recording on. The recorded snap goes into
// the store and is investigated from there; every ReplayEvery-th one is
// verified with verifyReplay.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

using namespace perfbench;
using namespace traceback;

namespace {

constexpr unsigned Modules = 96;
constexpr unsigned Iters = 100;
constexpr unsigned ReplayEvery = 2;
constexpr size_t MinSamples = 100;

class RecordReplay : public Workload {
public:
  explicit RecordReplay(const Options &O) : Workload(O) {}

  const char *stepName() const override { return "module"; }
  uint64_t period() const override { return ReplayEvery; }

  bool setup(std::string &Error) override {
    for (const Program &Pr : requestLoops(P.Opt.Seed, Modules, Iters)) {
      Programs.emplace_back();
      if (!P.build(Pr, Programs.back(), Error))
        return false;
    }
    return P.openStore(P.Opt.DataDir + "/store", Error);
  }

  void step(uint64_t Index) override {
    auto S = P.T.span("module", Index);
    const BuiltProgram &BP = Programs[Index % Programs.size()];
    Pipeline::ReproOptions RO;
    RO.Store = true;
    RO.Replay = Index % ReplayEvery == 0;
    RO.FirstPass = Index < Programs.size();
    P.reproduce(BP, RO, Index);
    SnapQuery Q;
    Q.setModule(BP.Src.Name);
    P.investigate(Q, 1, BP.Src, Index);
  }

  bool sampled() const override {
    return P.RecordedRunMs.size() >= MinSamples &&
           P.ReplayMs.size() >= MinSamples &&
           P.Reproductions >= Programs.size();
  }

  void report(double MeasuredS, MetricMap &E2E, MetricMap &Layer) override {
    reportShared(P, stepName(), MeasuredS, P.Store->liveBytes(),
                 P.SnapsQueryable, E2E, Layer);
  }

private:
  std::vector<BuiltProgram> Programs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeRecordReplay(const Options &O) {
  return std::make_unique<RecordReplay>(O);
}
