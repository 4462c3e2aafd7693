// Randomized generator of deep ECV programs for the differential harness.
//
// Each generated program is an accumulator over `depth` independent draws —
// the shape whose exact enumeration is exponential (2..4 outcomes per draw)
// and which the analytic engines collapse to polynomial work. The generator
// deliberately mixes constructs the shape analysis accepts (guarded and
// value-form increments, det interludes, affine call wrappers) with ones it
// must reject (ECV-dependent multiplies, nonlinear returns), so a corpus
// replay exercises both the analytic fast path and the
// fall-back-to-enumeration contract on the same distribution of programs.

#ifndef ECLARITY_TESTS_DEEP_PROGRAM_GEN_H_
#define ECLARITY_TESTS_DEEP_PROGRAM_GEN_H_

#include <cstdio>
#include <string>

#include "src/util/rng.h"

namespace eclarity {
namespace deepgen {

inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One random draw + increment statement pair appended to `body`.
// `friendly` biases toward analytic-shaped constructs; `binary_only`
// restricts to Bernoulli draws (2^depth total assignments — deep but still
// cheaply enumerable, so the exact reference stays affordable at depth 14).
inline void AppendDraw(Rng& rng, int index, bool friendly, bool binary_only,
                       std::string& body) {
  const std::string ev = "e" + std::to_string(index);
  const double unit_uj = static_cast<double>(rng.UniformInt(1, 9));
  const int kind = binary_only ? 0 : static_cast<int>(rng.UniformInt(0, 3));
  if (kind == 0) {
    const double p = 0.05 + 0.9 * (static_cast<double>(rng.UniformInt(0, 16)) /
                                   16.0);
    body += "  ecv " + ev + " ~ bernoulli(" + Num(p) + ");\n";
    // Guard-form increment; sometimes with an else-arm, sometimes without
    // (the absent arm is the "truly unchanged accumulator" case).
    body += "  if (" + ev + ") { acc = acc + " + Num(unit_uj) + "uJ; }";
    if (rng.Bernoulli(0.5)) {
      body += " else { acc = acc + " + Num(unit_uj / 4.0) + "uJ; }";
    }
    body += "\n";
    return;
  }
  if (kind == 1) {
    body += "  ecv " + ev + " ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);\n";
  } else {
    const int lo = static_cast<int>(rng.UniformInt(0, 2));
    const int hi = lo + static_cast<int>(rng.UniformInt(1, 3));
    body += "  ecv " + ev + " ~ uniform_int(" + std::to_string(lo) + ", " +
            std::to_string(hi) + ");\n";
  }
  if (friendly || rng.Bernoulli(0.7)) {
    // Value-form increment, linear in the draw.
    body += "  acc = acc + " + ev + " * " + Num(unit_uj) + "uJ;\n";
  } else {
    // Draw-dependent branching on a numeric ECV: still enumerable, and a
    // shape the exact analyzer may need its generic walker for.
    body += "  if (" + ev + " > 0) { acc = acc + " + ev + " * " +
            Num(unit_uj) + "uJ; } else { acc = acc + " + Num(unit_uj / 2.0) +
            "uJ; }\n";
  }
}

// Generates a program whose entry interface is `deep(n)` with `depth`
// independent draws (support 2..4 each). `friendly` == true keeps every
// construct inside the analytic shape; false mixes in constructs that
// force engine-specific handling or enumeration fallback.
inline std::string DeepProgram(Rng& rng, int depth, bool friendly,
                               bool binary_only = false) {
  std::string body = "  let mut acc = 0J;\n";
  for (int i = 0; i < depth; ++i) {
    AppendDraw(rng, i, friendly, binary_only, body);
    if (rng.Bernoulli(0.3)) {
      // Det interlude: unrelated arithmetic the walkers must carry through.
      body += "  let d" + std::to_string(i) + " = n * " +
              std::to_string(i + 1) + ";\n";
      body += "  acc = acc + d" + std::to_string(i) + " * 1nJ;\n";
    }
  }
  // Tail: plain accumulator, accumulator + det shift, or (unfriendly) a
  // nonlinear return that the bounded engine must treat as a mixture.
  std::string ret;
  const int tail = static_cast<int>(rng.UniformInt(0, friendly ? 1 : 2));
  if (tail == 0) {
    ret = "  return acc;\n";
  } else if (tail == 1) {
    ret = "  return acc + n * 3uJ;\n";
  } else {
    ret = "  return acc + min(n, 4) * 2uJ;\n";
  }
  std::string program =
      "interface deep_core(n) {\n" + body + ret + "}\n";
  // Optionally stack affine wrappers (exercises call handling / the
  // certified engines' per-call memo).
  std::string entry = "deep_core";
  const int wrappers = static_cast<int>(rng.UniformInt(0, 2));
  for (int w = 0; w < wrappers; ++w) {
    const std::string name = "deep_wrap" + std::to_string(w);
    const double scale = static_cast<double>(rng.UniformInt(1, 3));
    program += "interface " + name + "(n) { return " + Num(scale) + " * " +
               entry + "(n) + " + Num(static_cast<double>(w + 1)) +
               "uJ; }\n";
    entry = name;
  }
  program += "interface deep(n) { return " + entry + "(n); }\n";
  return program;
}

}  // namespace deepgen
}  // namespace eclarity

#endif  // ECLARITY_TESTS_DEEP_PROGRAM_GEN_H_
