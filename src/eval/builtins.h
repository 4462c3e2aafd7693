// Builtin functions available inside EIL interfaces. The table of names
// and arities is declared once, as ECLARITY_BUILTINS in src/lang/ast.h.
//
//   min(a,b)  max(a,b)  clamp(x,lo,hi)   — numbers or concrete energies
//   abs(x) floor(x) ceil(x) round(x)     — numbers (abs also on energies)
//   pow(x,y) log(x) log2(x) exp(x) sqrt(x) — numbers
//   au("name")        — 1 abstract energy unit called "name"
//   au("name", k)     — k abstract units

#ifndef ECLARITY_SRC_EVAL_BUILTINS_H_
#define ECLARITY_SRC_EVAL_BUILTINS_H_

#include <string>
#include <vector>

#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

// Applies builtin `name` to already-evaluated arguments. `string_args`
// carries string literals (only `au` uses them). `context` prefixes errors.
Result<Value> ApplyBuiltin(const std::string& name,
                           const std::vector<Value>& args,
                           const std::vector<std::string>& string_args,
                           const std::string& context);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_BUILTINS_H_
