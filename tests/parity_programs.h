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

// A constant on each side of + - * / % < ==, which the bytecode reads
// straight from its constant pool, plus the ratio of two concrete energies
// and the negation of a number and of a concrete energy.
inline constexpr char kConstantOperandsSource[] = R"(
interface const_ops(x) {
  let sum = (2 + x) + (x + 2) + (x - 0.5) + (1 - x) + (3 * x) + (x * 3);
  let quot = (x / 4) + (8 / x) + (10 % x) + (x % 4);
  let flags = (x < 3 ? 1 : 0) + (3 < x ? 2 : 0) + (x == 7 ? 4 : 0) +
              (7 == x ? 8 : 0);
  let neg = -x + -(x * 1mJ) / 1mJ;
  return (sum + quot + flags + neg) * 1uJ + 2uJ * x - x * 1uJ / 4;
}
)";

// Abstract energy against constants: au(...) times a constant on either
// side, and ratios against a constant abstract energy, back to Joules.
inline constexpr char kAbstractScaledSource[] = R"(
interface abstract_scaled(n) {
  let relu = au("relu", n) * 3;
  let twice = 2 * au("relu", n);
  return (relu / au("relu", 1)) * 1mJ + (twice / au("relu", 1)) * 1uJ;
}
)";

// Results whose sign or payload bits are the point: -0.0 Joules on one
// path, and on the other a NaN (inf - inf) negated as a number and as an
// energy, whose sign bits differ. Folding a NaN fails ("non-finite atom").
inline constexpr char kSignedZeroSource[] = R"(
interface signed_zero(x) {
  ecv flip ~ bernoulli(0.25);
  let z = -x * 0;
  return flip ? z * 1mJ : -(x * 0mJ) + x * 1uJ;
}
)";
inline constexpr char kNanSource[] = R"(
interface nan_results(x) {
  let big = x * 1e308;
  let nan = big - big;
  ecv pick ~ categorical(0: 0.5, 1: 0.25, 2: 0.25);
  return pick == 0 ? nan * 1mJ : (pick == 1 ? -(nan * 1mJ) : -nan * 1mJ);
}
)";

// Calls the bytecode compiler expands in place: small callees that make no
// interface call once their own calls are expanded.
//
// A leaf with a guarded draw and a draw whose support depends on its
// parameter, so its errors and qualified names must name the leaf.
inline constexpr char kInlineLeafEcvSource[] = R"(
interface inl_ecv_top(x) {
  return inl_ecv_leaf(x) + 1mJ;
}
interface inl_ecv_leaf(n) {
  ecv hit ~ bernoulli(0.4);
  if (hit) { return n * 1mJ; }
  ecv burst ~ uniform_int(1, n);
  return n * burst * 2mJ;
}
)";
// A leaf whose loop returns early for small arguments and runs out for
// large ones, called twice in one expression.
inline constexpr char kInlineLoopLeafSource[] = R"(
interface inl_loop_top(x) {
  return inl_loop_leaf(x) + inl_loop_leaf(x + 5);
}
interface inl_loop_leaf(n) {
  let mut acc = 0J;
  for i in 0..8 {
    if (i >= n) { return acc; }
    acc = acc + max(i, 1) * 1uJ;
  }
  return acc * 2;
}
)";
// Three levels expanded into the entry, each with its own draw or
// arguments computed into the callee's frame.
inline constexpr char kInlineChainSource[] = R"(
interface inl_chain_top(x) {
  ecv e ~ bernoulli(0.5);
  return e ? inl_chain1(x) : inl_chain1(x + 1);
}
interface inl_chain1(a) { return inl_chain2(a * 2) + 1uJ; }
interface inl_chain2(b) { return inl_chain3(b, b + 1) * 3; }
interface inl_chain3(c, d) {
  ecv f ~ categorical(1: 0.5, 2: 0.25, 3: 0.25);
  return (c * f + d) * 1uJ;
}
)";
// Parameters bound in place to the caller's variables and to a constant,
// copied into a mutable local, and shadowed in a nested block; the caller
// reads its variable after the calls. `z = inl_param_chain(z)` writes the
// register its parameter reads: a fold chain seeded in that register would
// read the seed where it should read the parameter.
inline constexpr char kInlineParamsSource[] = R"(
interface inl_param_top(x) {
  let y = x + 1;
  let mut z = y;
  z = inl_param_chain(z);
  return inl_param_leaf(y, 2) + inl_param_leaf(x, y) + (y + z) * 1uJ;
}
interface inl_param_chain(p) { return (0 - p) * 2 + p; }
interface inl_param_leaf(p, q) {
  let mut m = p;
  m = m * q;
  if (m > 10) {
    let p = m - 10;
    return p * 1uJ;
  }
  return m * 1uJ + p * 1nJ;
}
)";
// One leaf called twice in an expression and once per loop iteration.
inline constexpr char kInlineLeafTwiceSource[] = R"(
interface inl_twice_top(x) {
  let mut t = inl_sq(x) + inl_sq(x + 1) * 2;
  for i in 0..3 {
    t = t + inl_sq(i);
  }
  return t;
}
interface inl_sq(n) { return n * n * 1uJ; }
)";
// Recursive callees, direct and mutual, stay out of line; a leaf called
// from a recursive body still expands.
inline constexpr char kRecursiveSource[] = R"(
interface rec_top(x) { return rec_fact(x) + rec_even(x); }
interface rec_fact(n) {
  if (n <= 1) { return rec_unit(); }
  return n * rec_fact(n - 1);
}
interface rec_even(n) {
  if (n <= 0) { return 1uJ; }
  return rec_odd(n - 1);
}
interface rec_odd(n) {
  if (n <= 0) { return 2uJ; }
  return rec_even(n - 1);
}
interface rec_unit() { return 1uJ; }
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
    {"constant_operands", kConstantOperandsSource, "const_ops", {7.0}},
    {"abstract_scaled", kAbstractScaledSource, "abstract_scaled", {5.0}},
    {"signed_zero", kSignedZeroSource, "signed_zero", {7.0}},
    {"nan_results", kNanSource, "nan_results", {7.0}},
    {"inline_leaf_ecv", kInlineLeafEcvSource, "inl_ecv_top", {3.0}},
    {"inline_loop_early_return", kInlineLoopLeafSource, "inl_loop_top",
     {3.0}},
    {"inline_chain", kInlineChainSource, "inl_chain_top", {4.0}},
    {"inline_params_in_place", kInlineParamsSource, "inl_param_top", {3.0}},
    {"inline_leaf_twice", kInlineLeafTwiceSource, "inl_twice_top", {5.0}},
    {"recursive_not_inlined", kRecursiveSource, "rec_top", {5.0}},
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
    // A bool constant in arithmetic.
    {"bool_constant_arithmetic", "interface f(x) { return (x + true) * 1J; }",
     "f", {2.0}},
    // Division and modulo by a constant zero, of a number and an energy.
    {"division_by_constant_zero", "interface f(x) { return x / 0 * 1J; }",
     "f", {2.0}},
    {"energy_division_by_constant_zero",
     "interface f(x) { return x * 1J / 0; }", "f", {2.0}},
    {"modulo_by_constant_zero", "interface f(x) { return x % 0 * 1J; }", "f",
     {2.0}},
    // A concrete energy compared with an abstract one.
    {"concrete_vs_abstract_comparison",
     "interface f(x) { return x * 1J < au(\"relu\", x) ? 1J : 2J; }", "f",
     {2.0}},
    // Negation of a bool.
    {"negate_bool", "interface f(x) { let b = x < 3; return -b * 1J; }", "f",
     {2.0}},
    // uniform_int bounds that round outside the int64 range, are not
    // finite, or span the whole range, dynamic and constant.
    {"uniform_int_huge_bound",
     "interface f(x) { ecv e ~ uniform_int(0, x); return e * 1J; }", "f",
     {1e30}},
    {"uniform_int_constant_huge_bound",
     "interface f(x) { ecv e ~ uniform_int(0, 1e30); return e * x * 1J; }",
     "f",
     {1.0}},
    {"uniform_int_infinite_bound",
     "interface f(x) { let big = x * 1e308; ecv e ~ uniform_int(0, big); "
     "return e * 1J; }",
     "f",
     {10.0}},
    {"uniform_int_nan_bound",
     "interface f(x) { let big = x * 1e308; let nan = big - big; "
     "ecv e ~ uniform_int(nan, 3); return e * 1J; }",
     "f",
     {10.0}},
    {"uniform_int_full_span",
     "interface f(x) { ecv e ~ uniform_int(0 - x, x); return e * 1J; }", "f",
     {5e18}},
    // Failures inside bodies the bytecode compiler expands in place: each
    // message names the callee.
    {"inline_assigns_parameter",
     "interface f(x) { return g(x) + 1J; }\n"
     "interface g(a) { a = a + 1; return a * 1J; }",
     "f",
     {1.0}},
    {"inline_callee_entry_error",
     "interface f(x) { return g(x, x) + 1J; }\n"
     "interface g(a, a) { return a * 1J; }",
     "f",
     {1.0}},
    {"inline_division_by_zero",
     "interface f(x) { return 1J + g(x, x - 2); }\n"
     "interface g(n, d) { return n / d * 1J; }",
     "f",
     {2.0}},
    {"inline_uniform_int_inverted",
     "interface f(x) { return g(x) * 2; }\n"
     "interface g(n) { ecv e ~ uniform_int(n, 0); return e * 1J; }",
     "f",
     {3.0}},
    {"inline_falls_off_end",
     "interface f(x) { return g(x) + 1J; }\n"
     "interface g(n) {\n"
     "  if (n > 5) { return 1J; }\n"
     "  for i in 0..n { if (i > 5) { return 2J; } }\n"
     "}",
     "f",
     {2.0}},
};

}  // namespace parity
}  // namespace eclarity

#endif  // ECLARITY_TESTS_PARITY_PROGRAMS_H_
