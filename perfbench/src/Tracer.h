//===- perfbench/src/Tracer.h - Spans, samples and instrument sums --------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement plumbing for the fault-to-diagnosis benchmark:
///
///  - Tracer records one span per call into a layer's public function
///    (name, start, end, parent span, operation id). Spans stay in memory
///    and are written out when the run ends. A disabled tracer records
///    nothing, so the untraced run pays one branch per call site.
///  - Samples keeps raw per-operation timings and answers percentiles.
///  - InstrumentSums folds MetricsRegistry snapshots from many short-lived
///    deployments into one per-workload total.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "support/Metrics.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
  uint64_t OpId = 0;   ///< Round, investigation or module id.
};

class Tracer {
public:
  /// Closes its span on destruction (no-op when tracing is off).
  class Scope {
  public:
    Scope(Tracer &T, int32_t Index) : T(T), Index(Index) {}
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int32_t Index;
  };

  /// Opens a span named \p Name (a string literal) under the innermost
  /// open span.
  Scope span(const char *Name, uint64_t OpId = 0);

  bool Enabled = false;

  const std::vector<Span> &spans() const { return Spans; }
  /// Self time in ns of span \p Index: its duration minus its children's.
  uint64_t selfNs(size_t Index) const;
  /// Writes every span as JSON (one object per line inside an array).
  bool writeJson(const std::string &Path) const;

private:
  /// Grows the span store, and touches its new pages, when fewer than a
  /// step's worth of free slots remain. Called only between steps.
  void reserveHeadroom();

  std::vector<Span> Spans;
  std::vector<uint64_t> ChildNs; ///< Per span: time its children cover.
  int32_t Open = -1;
};

/// Raw per-operation timings (ms).
class Samples {
public:
  void add(double Ms) { V.push_back(Ms); }
  size_t size() const { return V.size(); }
  /// Linear-interpolated percentile, \p Q in [0, 100]; 0 when empty.
  double pct(double Q) const;
  double median() const { return pct(50); }

private:
  std::vector<double> V;
};

/// Sums of the counters and histograms (and the last value of each gauge)
/// across many registries.
struct InstrumentSums {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, int64_t> Gauges;
  std::map<std::string, traceback::HistogramSnapshot> Histograms;

  void add(const traceback::MetricsSnapshot &S);
  uint64_t counter(const std::string &Name) const;
  /// Mean of histogram \p Name (sum / count), 0 when it has no samples.
  double histMean(const std::string &Name) const;
  std::string toJson() const;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
