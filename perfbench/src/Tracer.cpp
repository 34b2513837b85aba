//===- perfbench/src/Tracer.cpp - Spans, samples and instrument sums ------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  Span &S = T.Spans[Index];
  S.EndNs = nowNs();
  if (S.Parent >= 0)
    T.ChildNs[S.Parent] += S.EndNs - S.StartNs;
  T.Open = S.Parent;
}

/// More spans than any one step opens.
constexpr size_t StepHeadroom = 4096;

void Tracer::reserveHeadroom() {
  if (Spans.capacity() - Spans.size() >= StepHeadroom)
    return;
  size_t N = Spans.size(), Cap = 2 * (N + StepHeadroom);
  Spans.reserve(Cap);
  ChildNs.reserve(Cap);
  Spans.resize(Cap);
  ChildNs.resize(Cap);
  Spans.resize(N);
  ChildNs.resize(N);
}

Tracer::Scope Tracer::span(const char *Name, uint64_t OpId) {
  if (!Enabled)
    return Scope(*this, -1);
  // Grow between steps only: a reallocation (and the first touch of its
  // pages) inside a step would count as that step's unattributed time.
  if (Open < 0)
    reserveHeadroom();
  Span S;
  S.Name = Name;
  S.Parent = Open;
  S.OpId = OpId;
  Spans.push_back(S);
  ChildNs.push_back(0);
  Open = static_cast<int32_t>(Spans.size() - 1);
  // Stamp last, so the span's own bookkeeping is not inside it.
  Spans.back().StartNs = nowNs();
  return Scope(*this, Open);
}

uint64_t Tracer::selfNs(size_t Index) const {
  const Span &S = Spans[Index];
  uint64_t Dur = S.EndNs - S.StartNs;
  return Dur > ChildNs[Index] ? Dur - ChildNs[Index] : 0;
}

bool Tracer::writeJson(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fputs("[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"op\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu}%s\n",
                 I, S.Name, S.Parent, static_cast<unsigned long long>(S.OpId),
                 static_cast<unsigned long long>(S.StartNs - Base),
                 static_cast<unsigned long long>(S.EndNs - Base),
                 static_cast<unsigned long long>(selfNs(I)),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

double Samples::pct(double Q) const {
  if (V.empty())
    return 0.0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  double Pos = Q / 100.0 * static_cast<double>(S.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, S.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return S[Lo] + (S[Hi] - S[Lo]) * Frac;
}

void InstrumentSums::add(const traceback::MetricsSnapshot &S) {
  for (const auto &[Name, V] : S.Counters)
    Counters[Name] += V;
  for (const auto &[Name, V] : S.Gauges)
    Gauges[Name] = V;
  for (const auto &[Name, H] : S.Histograms) {
    traceback::HistogramSnapshot &Dst = Histograms[Name];
    if (Dst.Buckets.size() < H.Buckets.size())
      Dst.Buckets.resize(H.Buckets.size());
    Dst.Count += H.Count;
    Dst.Sum += H.Sum;
    for (size_t I = 0; I < H.Buckets.size(); ++I)
      Dst.Buckets[I] += H.Buckets[I];
  }
}

uint64_t InstrumentSums::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

double InstrumentSums::histMean(const std::string &Name) const {
  auto It = Histograms.find(Name);
  if (It == Histograms.end() || It->second.Count == 0)
    return 0.0;
  return static_cast<double>(It->second.Sum) /
         static_cast<double>(It->second.Count);
}

std::string InstrumentSums::toJson() const {
  traceback::MetricsSnapshot S;
  S.Counters = Counters;
  S.Gauges = Gauges;
  S.Histograms = Histograms;
  return S.toJson(2);
}
