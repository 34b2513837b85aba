//===- perfbench/src/Programs.cpp - Seeded guest programs -----------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "support/Random.h"
#include "support/Text.h"

using namespace perfbench;
using traceback::formatv;
using traceback::Rng;

namespace {

/// Builds a source line by line, so generated programs know the line
/// numbers of their own statements.
class SourceWriter {
public:
  /// Appends \p Line and returns its 1-based line number.
  unsigned line(const std::string &Line) {
    Text += Line;
    Text += '\n';
    return ++Lines;
  }
  std::string Text;

private:
  unsigned Lines = 0;
};

} // namespace

std::vector<Program> perfbench::fleetApps(uint64_t Seed) {
  // The `tbtool serve` fleet mix: a SEGV crasher and a div-by-zero
  // crasher, both yielding every iteration so the fleet interleaves. The
  // seed varies only the arithmetic: the loop length sets which peers are
  // still alive when a fault fans out, so it stays at serve's 60 and every
  // seed produces the same number of snaps per round.
  Rng R(Seed ^ 0xf1ee7ull);
  std::vector<Program> Out;
  const char *Names[2] = {"appa", "appb"};
  for (int App = 0; App < 2; ++App) {
    SourceWriter W;
    W.line("fn main() export {");
    W.line(formatv("  var x = %u;", static_cast<unsigned>(R.range(1, 9))));
    W.line("  var i = 0;");
    W.line("  while (i < 60) {");
    W.line(formatv("    x = x * %u + %u;", static_cast<unsigned>(R.range(3, 7)),
                   static_cast<unsigned>(R.range(1, 5))));
    W.line("    i = i + 1;");
    W.line("    yield();");
    W.line("  }");
    unsigned Anchor = 0;
    if (App == 0) {
      W.line("  var p = 0;");
      Anchor = W.line("  print(load(p));");
    } else {
      W.line("  var z = 0;");
      Anchor = W.line("  print(x / z);");
    }
    W.line("}");
    Program P;
    P.Name = Names[App];
    P.File = P.Name + ".ml";
    P.Source = W.Text;
    P.AnchorLine = Anchor;
    Out.push_back(std::move(P));
  }
  return Out;
}

std::vector<Program> perfbench::plantedFaults(uint64_t Seed, unsigned Faults,
                                              unsigned Variants,
                                              unsigned Iters) {
  std::vector<Program> Out;
  for (unsigned F = 0; F < Faults; ++F) {
    for (unsigned V = 0; V < Variants; ++V) {
      Rng R(Seed * 0x9e3779b97f4a7c15ull + F * 131 + V * 7 + 1);
      SourceWriter W;
      // Two branchy helpers the main loop drives: each iteration leaves a
      // handful of path records, so the ring holds tens of thousands. The
      // seed varies constants only, so every seed's programs are the same
      // size and the workload's cost does not hinge on the draw.
      for (const char *Fn : {"mix_a", "mix_b"}) {
        W.line(formatv("fn %s(x) {", Fn));
        W.line("  var y = x;");
        for (unsigned B = 0; B < 3; ++B)
          W.line(formatv("  if (y & %u) { y = y * %u + %u; } "
                         "else { y = y ^ (y >> %u); }",
                         1u << R.below(6), 3 + static_cast<unsigned>(R.below(5)),
                         1 + static_cast<unsigned>(R.below(9)),
                         1 + static_cast<unsigned>(R.below(4))));
        W.line("  return y & 1048575;");
        W.line("}");
      }
      // The planted fault, in a function of its own: the kind differs by
      // module, the faulting statement by fault number.
      W.line("fn fail(x) {");
      W.line("  var z = x - x;");
      unsigned Anchor = 0;
      switch (F % 3) {
      case 0:
        Anchor = W.line("  print(load(z));");
        break;
      case 1:
        Anchor = W.line("  print(x / z);");
        break;
      default:
        Anchor = W.line("  print(x % z);");
        break;
      }
      W.line("  return x;");
      W.line("}");
      W.line("fn main() export {");
      W.line(formatv("  var s = %u;", 1 + static_cast<unsigned>(R.below(1000))));
      W.line("  var i = 0;");
      W.line(formatv("  while (i < %u) {", Iters));
      W.line("    s = mix_a(s + i);");
      W.line("    if (i & 1) { s = mix_b(s); }");
      W.line("    i = i + 1;");
      W.line("  }");
      W.line("  fail(s | 1);");
      W.line("}");
      Program P;
      P.Name = formatv("fault%u", F);
        P.File = P.Name + ".ml";
      P.Source = W.Text;
      P.AnchorLine = Anchor;
      Out.push_back(std::move(P));
    }
  }
  return Out;
}

std::vector<Program> perfbench::requestLoops(uint64_t Seed, unsigned Count,
                                             unsigned Iters) {
  // bench_replay's request-loop module: a rand-fed branchy handler,
  // preempted at quantum boundaries, snapped as the last statement (so the
  // snap's view ends on the snap(1) line). Handler sizes vary over a
  // narrower range than bench_replay's, so a seed's module set costs
  // about what any other seed's does.
  std::vector<Program> Out;
  for (unsigned Idx = 0; Idx < Count; ++Idx) {
    uint32_t S = static_cast<uint32_t>(Seed * 0x2545f491u) ^
                 (Idx * 2654435761u + 0x51ed2701u);
    if (S == 0)
      S = 1;
    auto Next = [&] {
      S ^= S << 13;
      S ^= S >> 17;
      S ^= S << 5;
      return S;
    };
    SourceWriter W;
    W.line("fn handle(x) {");
    W.line("  var y = x;");
    unsigned Branches = 4 + Next() % 2;
    for (unsigned I = 0; I < Branches; ++I)
      W.line(formatv("  if (y & %u) { y = y * %u + %u; } "
                     "else { y = y ^ (y >> %u); }",
                     1u << (Next() % 8), 3 + Next() % 5, 1 + Next() % 9,
                     1 + Next() % 4));
    unsigned Chunk = 20 + Next() % 8;
    for (unsigned I = 0; I < Chunk; ++I)
      W.line(formatv("  y = (y * %u + %u) ^ (y >> %u);", 3 + Next() % 7,
                     Next() % 255, 1 + Next() % 5));
    W.line("  return y & 1048575;");
    W.line("}");
    W.line("fn main() export {");
    W.line(formatv("  var s = %u;", 1 + Next() % 1000));
    W.line("  var i = 0;");
    W.line(formatv("  while (i < %u) {", Iters));
    W.line("    s = handle(s + (rand() & 31));");
    W.line("    i = i + 1;");
    W.line("  }");
    W.line("  print(s & 65535);");
    unsigned Anchor = W.line("  snap(1);");
    W.line("}");
    Program P;
    P.Name = formatv("svc%03u", Idx);
    P.File = P.Name + ".ml";
    P.Source = W.Text;
    P.AnchorLine = Anchor;
    Out.push_back(std::move(P));
  }
  return Out;
}
