// The engine-parity corpus: EIL programs (with entry + arguments) that every
// pair of evaluation engines must agree on. engine_parity_test.cc replays it
// across {tree walk, bytecode}; differential_test.cc replays the same
// corpus across {tree walk, bytecode, analytic bounded, analytic moments},
// so a program added here is automatically exercised by both harnesses.

#ifndef ECLARITY_TESTS_PARITY_PROGRAMS_H_
#define ECLARITY_TESTS_PARITY_PROGRAMS_H_

#include <vector>

namespace eclarity {
namespace parity {

struct ParityCase {
  const char* name;
  const char* source;
  const char* entry;
  std::vector<double> args;  // all corpus arguments are numbers
};

inline constexpr char kFig1Source[] = R"(
const max_response_len = 1024;
interface E_ml_webservice_handle(image_size, n_zeros) {
  ecv request_hit ~ bernoulli(0.3);
  if (request_hit) {
    return E_cache_lookup(image_size, max_response_len);
  } else {
    return E_cnn_forward(image_size, n_zeros);
  }
}
interface E_cache_lookup(key_size, response_len) {
  ecv local_cache_hit ~ bernoulli(0.8);
  if (local_cache_hit) {
    return 0.001mJ * response_len;
  } else {
    return 0.1mJ * response_len;
  }
}
interface E_cnn_forward(image_size, n_zeros) {
  let n_embedding = 256;
  return 8 * (image_size - n_zeros) * 20nJ +
         8 * n_embedding * 0.1nJ +
         16 * n_embedding * 1.5nJ;
}
)";

inline constexpr char kLoopsConstsBuiltinsSource[] = R"(
const k_iters = 4;
const k_unit = 2mJ;
interface f(x) {
  let mut total = 0J;
  for i in 0..k_iters {
    ecv spike ~ bernoulli(0.25);
    let step = spike ? k_unit * (i + 1) : k_unit;
    total = total + step;
  }
  return total + min(x, k_iters) * 1mJ;
}
)";

inline constexpr char kNestedCallsCategoricalSource[] = R"(
interface outer(n) {
  ecv tier ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);
  return inner(tier) * n;
}
interface inner(tier) {
  ecv burst ~ uniform_int(1, 3);
  return (tier + 1) * burst * 1uJ;
}
)";

inline constexpr char kProfileOverrideSource[] = R"(
interface f() {
  ecv mode ~ bernoulli(0.5);
  return mode ? 1mJ : 2mJ;
}
)";

// A guarded-accumulator chain: the analytic engines' best case (every draw
// is an independent additive contribution), and still a useful
// engine-parity program.
inline constexpr char kAccumulatorChainSource[] = R"(
interface acc_chain(n) {
  let mut acc = 0J;
  ecv hit0 ~ bernoulli(0.5);
  if (hit0) { acc = acc + 1mJ; }
  ecv tier ~ categorical(0: 0.25, 1: 0.5, 2: 0.25);
  acc = acc + tier * 2mJ;
  ecv burst ~ uniform_int(0, 3);
  acc = acc + burst * 100uJ;
  ecv hit1 ~ bernoulli(0.125);
  if (hit1) { acc = acc + n * 10uJ; } else { acc = acc + 3uJ; }
  return acc + n * 1uJ;
}
)";

// An affine wrapper stack over an accumulator core: exercises the analytic
// engines' call handling (scale/offset extraction, sub-distribution reuse).
inline constexpr char kAffineWrapperSource[] = R"(
interface wrap2(n) { return 2 * wrap1(n) + 5mJ; }
interface wrap1(n) { return wrap0(n) - 1mJ; }
interface wrap0(n) {
  let mut acc = 0J;
  ecv a ~ bernoulli(0.3);
  if (a) { acc = acc + 4mJ; }
  ecv b ~ uniform_int(1, 4);
  acc = acc + b * 1mJ;
  return acc;
}
)";

// An accumulator read between its increments (`before`), and an affine
// wrapper over it. The analytic engines must leave this shape to
// enumeration: a walker that keeps pending increments out of the frame
// reads a stale accumulator there and answers another distribution.
inline constexpr char kAccumulatorSnapshotSource[] = R"(
interface snap_wrap(n) { return 3 * snap(n) + 1mJ; }
interface snap(n) {
  let mut acc = 0J;
  ecv a ~ bernoulli(0.3);
  if (a) { acc = acc + 2mJ; }
  let before = acc;
  ecv b ~ uniform_int(1, 3);
  acc = acc + b * 1mJ;
  ecv c ~ categorical(0: 0.5, 1: 0.25, 2: 0.25);
  acc = acc + c * n * 1uJ;
  return acc + before;
}
)";

// The happy-path corpus (no profile overrides; those are built in the
// harnesses because EcvProfile is not constexpr-constructible).
inline const ParityCase kParityCorpus[] = {
    {"fig1_webservice", kFig1Source, "E_ml_webservice_handle",
     {50176.0, 10000.0}},
    {"loops_consts_builtins", kLoopsConstsBuiltinsSource, "f", {7.0}},
    {"nested_calls_categorical", kNestedCallsCategoricalSource, "outer",
     {2.0}},
    {"profile_override_base", kProfileOverrideSource, "f", {}},
    {"accumulator_chain", kAccumulatorChainSource, "acc_chain", {6.0}},
    {"affine_wrappers", kAffineWrapperSource, "wrap2", {3.0}},
    {"accumulator_snapshot", kAccumulatorSnapshotSource, "snap", {5.0}},
    {"accumulator_snapshot_wrapper", kAccumulatorSnapshotSource, "snap_wrap",
     {5.0}},
};

// Programs whose evaluation must FAIL — with the same status code and
// message from every engine. Each hits a different failure path.
inline const ParityCase kErrorCorpus[] = {
    // Undefined variable.
    {"undefined_variable", "interface f(x) { return ghost + x; }", "f", {1.0}},
    // Call to an undefined interface.
    {"undefined_callee", "interface f(x) { return E_missing(x); }", "f",
     {1.0}},
    // Arity mismatch.
    {"arity_mismatch",
     "interface f(x) { return g(x, x); }\n"
     "interface g(a) { return a * 1J; }",
     "f",
     {1.0}},
    // Non-bool condition.
    {"non_bool_condition",
     "interface f(x) { if (x) { return 1J; } return 2J; }", "f", {1.0}},
    // Assignment to an immutable binding.
    {"immutable_assignment",
     "interface f(x) { let y = 1; y = 2; return y * 1J; }", "f", {1.0}},
    // Bernoulli parameter out of range.
    {"bernoulli_out_of_range",
     "interface f(p) { ecv e ~ bernoulli(p); return e ? 1J : 2J; }", "f",
     {1.5}},
    // Mixed-kind arithmetic.
    {"mixed_kind_arithmetic", "interface f(x) { return x + 1J; }", "f", {2.0}},
    // Unknown entry interface.
    {"unknown_entry", "interface f(x) { return x * 1J; }", "nope", {1.0}},
};

}  // namespace parity
}  // namespace eclarity

#endif  // ECLARITY_TESTS_PARITY_PROGRAMS_H_
