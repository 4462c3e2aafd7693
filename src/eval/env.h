// Environments for the reference tree walk (EvalEngine::kTreeWalk):
// string-keyed map scopes with EIL's dynamic scoping, kept as the
// executable specification the bytecode engine must match bit-for-bit.

#ifndef ECLARITY_SRC_EVAL_ENV_H_
#define ECLARITY_SRC_EVAL_ENV_H_

#include <map>
#include <string>
#include <vector>

#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

// A stack of scopes. Interface invocation pushes a fresh frame with the
// parameters bound; blocks push/pop nested scopes so `let` in an if-arm does
// not leak. Assignment walks outward to the nearest binding.
class Environment {
 public:
  Environment() { PushScope(); }

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  // Defines `name` in the innermost scope. Redefinition in the same scope is
  // an error (the checker catches it statically; this is the dynamic guard).
  Status Define(const std::string& name, Value value, bool is_mut);

  // Assigns to the nearest binding; errors when absent or immutable.
  Status Assign(const std::string& name, Value value);

  // Looks `name` up through all scopes, innermost first.
  Result<Value> Lookup(const std::string& name) const;

  bool IsDefined(const std::string& name) const;

 private:
  struct Binding {
    Value value;
    bool is_mut = false;
  };
  std::vector<std::map<std::string, Binding>> scopes_;
};

// RAII scope guard.
class ScopedScope {
 public:
  explicit ScopedScope(Environment& env) : env_(env) { env_.PushScope(); }
  ~ScopedScope() { env_.PopScope(); }
  ScopedScope(const ScopedScope&) = delete;
  ScopedScope& operator=(const ScopedScope&) = delete;

 private:
  Environment& env_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_ENV_H_
