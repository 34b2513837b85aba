//===- perfbench/src/main.cpp - Fault-to-diagnosis benchmark binary -------===//
//
// Part of the TraceBack reproduction project.
//
// perfbench --workload fleet|diagnose|record_replay --seed N --seconds S
//           --trace 0|1 [--data-dir DIR] [--out-dir DIR]
//
// Sets the workload up from scratch twice before and three times after
// the measurement (the median is setup_s), and steps it for S seconds of
// measured time (the second setup is the one measured) — longer if a timed
// metric still lacks its minimum sample count, never past 2*S. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 every other
// block of period() steps runs with spans on and it reports the per-layer
// metrics, the per-step budget and the tracing overhead (traced vs
// untraced step time), and writes the spans and every instrument to
// --out-dir. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "support/Text.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace perfbench;
using namespace traceback;

namespace {

/// setup_s is the median of this many timed setups.
constexpr int SetupsBefore = 2;
constexpr int SetupsAfter = 3;
/// The ROADMAP's budget bound: unattributed share of a traced round.
constexpr double BudgetBoundPct = 5.0;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet|diagnose|record_replay "
               "--seed N --seconds S --trace 0|1 [--data-dir DIR] "
               "[--out-dir DIR]\n");
  return 2;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "fleet")
    return makeFleet(O);
  if (O.Workload == "diagnose")
    return makeDiagnose(O);
  if (O.Workload == "record_replay")
    return makeRecordReplay(O);
  return nullptr;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  return formatv("%.17g", V);
}

/// Self share of each traced step span: the time no child span covers.
Samples unattributedPct(const Tracer &T, const char *StepName) {
  Samples Out;
  for (size_t I = 0; I < T.spans().size(); ++I) {
    const Span &S = T.spans()[I];
    if (S.Parent >= 0 || std::strcmp(S.Name, StepName) != 0)
      continue;
    uint64_t Dur = S.EndNs - S.StartNs;
    Out.add(Dur == 0 ? 0.0 : 100.0 * T.selfNs(I) / Dur);
  }
  return Out;
}

bool writeText(const std::string &Path, const std::string &Text) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string DataRoot = ".bench_build/perfbench-data";
  std::string OutDir = ".bench_build/perfbench-out";
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10), HaveSeed = true;
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr), HaveSeconds = true;
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--data-dir")
      DataRoot = V;
    else if (A == "--out-dir")
      OutDir = V;
    else
      return usage();
  }
  if (!HaveSeed || !HaveSeconds || O.Seconds <= 0 || !makeWorkload(O))
    return usage();

  namespace fs = std::filesystem;
  std::error_code EC;
  std::string RunDir = formatv("%s/%s-%d", DataRoot.c_str(),
                               O.Workload.c_str(), static_cast<int>(getpid()));

  // --- Setup -------------------------------------------------------------
  // One timed setup from scratch, in its own directory. A failed setup
  // ends the run without a result.
  Samples SetupS;
  auto setupOnce = [&](int K, bool Traced) -> std::unique_ptr<Workload> {
    O.DataDir = formatv("%s/setup%d", RunDir.c_str(), K);
    fs::remove_all(O.DataDir, EC);
    fs::create_directories(O.DataDir, EC);
    std::unique_ptr<Workload> Fresh = makeWorkload(O);
    Fresh->P.T.Enabled = Traced;
    std::string Error;
    uint64_t T0 = nowNs();
    if (!Fresh->setup(Error)) {
      std::fprintf(stderr, "perfbench: %s setup failed: %s\n",
                   O.Workload.c_str(), Error.c_str());
      Fresh.reset();
      fs::remove_all(RunDir, EC);
      std::exit(1);
    }
    SetupS.add(static_cast<double>(nowNs() - T0) / 1e9);
    return Fresh;
  };
  // Setups run before and after the measurement, so setup_s does not rest
  // on one moment of the host's speed.
  for (int K = 0; K < SetupsBefore - 1; ++K)
    setupOnce(K, false).reset();
  std::unique_ptr<Workload> W = setupOnce(SetupsBefore - 1, O.Trace);

  // --- Measure -------------------------------------------------------------
  // Step time and count, [0] untraced, [1] traced.
  double StepMs[2] = {0, 0};
  uint64_t StepCount[2] = {0, 0};
  uint64_t Start = nowNs();
  uint64_t Excluded = W->P.ExcludedNs;
  uint64_t Steps = 0;
  // Measured time: wall time minus the benchmark's own work in steps.
  auto measuredS = [&] {
    return static_cast<double>(nowNs() - Start -
                               (W->P.ExcludedNs - Excluded)) /
           1e9;
  };
  for (;; ++Steps) {
    double Elapsed = measuredS();
    if ((Elapsed >= O.Seconds && W->sampled()) || Elapsed >= 2 * O.Seconds)
      break;
    bool Traced = O.Trace && (Steps / W->period()) % 2 == 1;
    W->P.T.Enabled = Traced;
    uint64_t T0 = nowNs();
    uint64_t Excluded0 = W->P.ExcludedNs;
    W->step(Steps);
    StepMs[Traced] += nsToMs(nowNs() - T0 - (W->P.ExcludedNs - Excluded0));
    ++StepCount[Traced];
  }
  double MeasuredS = measuredS();
  W->P.T.Enabled = false;

  MetricMap E2E, Layer;
  W->report(MeasuredS, E2E, Layer);
  bool Correct = W->P.Failed == 0 && W->P.Attempted > 0;

  MetricMap &Out = O.Trace ? Layer : E2E;
  if (O.Trace) {
    Samples Unattributed = unattributedPct(W->P.T, W->stepName());
    double Max = Unattributed.pct(100);
    Layer["budget.unattributed_pct_p50"] = {Unattributed.pct(50), "%"};
    Layer["budget.unattributed_pct_max"] = {Max, "%"};
    Layer["budget.traced_steps"] = {static_cast<double>(Unattributed.size()),
                                    "count"};
    // Mean step times, not medians: steps are multimodal (with and
    // without a replay, a checkpoint), and alternating whole schedule
    // periods gives both sides the same mix.
    Layer["tracing.overhead_pct"] = {
        StepCount[0] == 0 || StepCount[1] == 0
            ? 0.0
            : 100.0 * ((StepMs[1] / StepCount[1]) /
                           (StepMs[0] / StepCount[0]) -
                       1),
        "%"};
    // The budget is a check on the fleet's traced rounds.
    if (O.Workload == "fleet") {
      ++W->P.Attempted;
      if (Unattributed.size() == 0 || Max > BudgetBoundPct)
        W->P.fail(formatv("budget: %.2f%% of a traced round unattributed",
                          Max));
    }
    Correct = W->P.Failed == 0 && W->P.Attempted > 0;
    fs::create_directories(OutDir, EC);
    std::string Base = OutDir + "/" + O.Workload;
    std::string Instruments =
        "{\n\"deployments\": " + W->P.DeploySums.toJson() +
        ",\n\"collector\": " + W->P.CollectorReg.snapshot().toJson(2) +
        ",\n\"analysis\": " + W->P.AnalysisReg.snapshot().toJson(2) +
        ",\n\"global\": " + MetricsRegistry::global().snapshot().toJson(2) +
        formatv(",\n\"bases\": {\"steps\": %llu, \"traced_steps\": %llu, "
                "\"snaps_queryable\": %llu, \"queries\": %llu, "
                "\"reproductions\": %llu, \"replays\": %zu}\n}\n",
                static_cast<unsigned long long>(Steps),
                static_cast<unsigned long long>(StepCount[1]),
                static_cast<unsigned long long>(W->P.SnapsQueryable),
                static_cast<unsigned long long>(W->P.Queries),
                static_cast<unsigned long long>(W->P.Reproductions),
                W->P.ReplayMs.size());
    if (!W->P.T.writeJson(Base + "-spans.json") ||
        !writeText(Base + "-instruments.json", Instruments))
      std::fprintf(stderr, "perfbench: cannot write the trace to %s\n",
                   OutDir.c_str());
  }

  uint64_t Attempted = W->P.Attempted, Failed = W->P.Failed;
  W.reset();
  for (int K = SetupsBefore; K < SetupsBefore + SetupsAfter; ++K)
    setupOnce(K, false).reset();
  E2E["setup_s"] = {SetupS.median(), "s"};
  fs::remove_all(RunDir, EC);

  for (const auto &[Name, M] : Out)
    Correct &= std::isfinite(M.Value);
  std::string Json = formatv("{\"correct\": %s, \"attempted\": %llu, "
                             "\"failed\": %llu, \"metrics\": {",
                             Correct ? "true" : "false",
                             static_cast<unsigned long long>(Attempted),
                             static_cast<unsigned long long>(Failed));
  bool First = true;
  for (const auto &[Name, M] : Out) {
    Json += formatv("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    First ? "" : ", ", Name.c_str(),
                    jsonNumber(M.Value).c_str(), M.Unit.c_str());
    First = false;
  }
  Json += "}}";
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu steps in %.2f s\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               static_cast<unsigned long long>(Steps), MeasuredS);
  std::printf("%s\n", Json.c_str());
  return 0;
}
