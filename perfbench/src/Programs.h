//===- perfbench/src/Programs.h - Seeded guest programs ---------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniLang programs each workload runs, generated from the seed:
///
///  - fleetApps: the two `tbtool serve` crashers (SEGV and div-by-zero),
///    with seeded loop constants;
///  - plantedFaults: deep-trace programs, each ending in one planted fault
///    inside its own module, several source variants per fault;
///  - requestLoops: `bench_replay`-style request-loop modules (branchy
///    handler, rand(), preemption) that end in snap(1).
///
/// Every program carries the source line its snap must point at, so the
/// benchmark can check the rendered fault view.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Program {
  /// Module name; also the planted fault, the triage ground truth (the
  /// variants of one fault share it).
  std::string Name;
  std::string File; ///< Source file name in the line tables.
  std::string Source;
  unsigned AnchorLine = 0; ///< Line the fault view must end on.
};

std::vector<Program> fleetApps(uint64_t Seed);
std::vector<Program> plantedFaults(uint64_t Seed, unsigned Faults,
                                   unsigned Variants, unsigned Iters);
std::vector<Program> requestLoops(uint64_t Seed, unsigned Count,
                                  unsigned Iters);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
