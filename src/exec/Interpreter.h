//===- exec/Interpreter.h - MiniFort reference interpreter ------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic AST-level evaluator for MiniFort. It is the normative
/// implementation of the language's execution semantics (documented in
/// docs/LANGUAGE.md "Execution semantics"): integer scalars with
/// by-reference parameter binding, globals, 1-based arrays, DO/WHILE/IF
/// control flow, a seeded READ stream, and PRINT trace capture. Division
/// or modulo by zero and out-of-bounds array accesses terminate the run
/// with a structured trap result rather than aborting the process, and
/// step/recursion-depth limits and a fixed array-cell budget bound every
/// run so the translation validation oracle (exec/Oracle.h) and the
/// analysis server can execute arbitrary programs safely.
///
/// Observation hooks report every scalar variable read and every
/// procedure entry; the oracle uses them to check the analyzer's
/// substituted constants and CONSTANTS(p) sets against observed values.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_EXEC_INTERPRETER_H
#define IPCP_EXEC_INTERPRETER_H

#include "lang/Ast.h"
#include "lang/Sema.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipcp {

/// How one execution ended.
enum class RunStatus : uint8_t {
  Ok,             ///< main returned normally.
  DivideByZero,   ///< "/ 0" or "% 0" was evaluated.
  ArrayBounds,    ///< Array index outside 1..size.
  StepLimit,      ///< RunLimits::MaxSteps exhausted.
  CallDepthLimit, ///< RunLimits::MaxCallDepth exceeded.
  MemoryLimit,    ///< Declared array cells would exceed MaxArrayCells.
};

/// Returns a stable lowercase name ("ok", "divide-by-zero", ...).
const char *runStatusName(RunStatus S);

/// True for the resource-exhaustion statuses. They depend on the run's
/// budgets rather than on program semantics, so a semantics-preserving
/// transform may legitimately move or remove them; only the genuine
/// traps (and Ok) are portable across translations.
inline bool isResourceLimit(RunStatus S) {
  return S == RunStatus::StepLimit || S == RunStatus::CallDepthLimit ||
         S == RunStatus::MemoryLimit;
}

/// The array cells one run may hold at once: global arrays plus the
/// local arrays of every active frame. Both engines charge a declaration
/// against it before allocating — global arrays at run start, a
/// procedure's local arrays when its frame is entered (refunded on
/// return) — and trap with RunStatus::MemoryLimit rather than allocate
/// past it, so a program declaring `array a(4000000000)` gets a
/// structured answer instead of killing the process. A fixed engine
/// constant, not a RunLimits field: it protects the process, so no
/// request may raise it.
inline constexpr uint64_t MaxArrayCells = uint64_t(1) << 22;

/// The declared cells of \p Arrays, saturating at UINT64_MAX.
inline uint64_t declaredArrayCells(const std::vector<ArrayDecl> &Arrays) {
  uint64_t Cells = 0;
  for (const ArrayDecl &A : Arrays) {
    uint64_t Size = static_cast<uint64_t>(A.Size);
    Cells = Size > UINT64_MAX - Cells ? UINT64_MAX : Cells + Size;
  }
  return Cells;
}

/// Resource bounds for one run.
struct RunLimits {
  /// Statement executions plus loop iterations.
  uint64_t MaxSteps = 1u << 20;
  /// Maximum depth of the call stack (main is depth 1).
  unsigned MaxCallDepth = 128;
};

/// The symbol lookup an OnProcEntry hook receives: a non-owning
/// reference to the engine's lookup callable, so firing the hook on
/// every procedure entry allocates nothing. It refers to a callable on
/// the engine's stack and is valid only for the duration of the
/// callback.
class SymbolLookup {
public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, SymbolLookup>>>
  SymbolLookup(const F &Fn)
      : Callable(&Fn), Invoke([](const void *C, SymbolId Sym) {
          return (*static_cast<const F *>(C))(Sym);
        }) {}

  const int64_t *operator()(SymbolId Sym) const {
    return Invoke(Callable, Sym);
  }

private:
  const void *Callable;
  const int64_t *(*Invoke)(const void *, SymbolId);
};

/// Observation hooks, all optional. Callbacks must not mutate the
/// interpreter's state; the pointers handed out are valid only for the
/// duration of the callback.
struct ExecHooks {
  /// Called for every evaluated scalar variable read (VarRefExpr in an
  /// expression position) with the node's id and the value read.
  /// Definition positions (assignment targets, READ targets, DO-loop
  /// variables) and by-reference actuals do not report — they are not
  /// value reads.
  std::function<void(ExprId, int64_t)> OnVarUse;
  /// Called on entry to every procedure (including main), after argument
  /// binding. The lookup resolves a formal of the entered procedure or a
  /// global scalar to its current cell, or null if the symbol is neither.
  std::function<void(ProcId, SymbolLookup)> OnProcEntry;
};

/// Parameters of one run.
struct RunOptions {
  RunLimits Limits;
  /// Seed of the READ input stream (see docs/LANGUAGE.md).
  uint64_t ReadSeed = 1;
};

/// Everything one run produces.
struct RunResult {
  RunStatus Status = RunStatus::Ok;
  /// The PRINT trace, in execution order.
  std::vector<int64_t> Prints;
  /// Statement executions plus loop iterations.
  uint64_t Steps = 0;
  /// READ statements executed (stream positions consumed).
  uint64_t ReadsConsumed = 0;
  /// Location of the trap when Status is not Ok.
  SourceLoc TrapLoc;
  /// Final values of the global scalars, indexed by SymbolId (slots of
  /// non-global symbols stay 0). Captured at run end, including after a
  /// trap, so engines can be compared on full final state.
  std::vector<int64_t> FinalGlobals;
  /// Final contents of every global array, ordered by SymbolId.
  std::vector<std::pair<SymbolId, std::vector<int64_t>>> FinalGlobalArrays;

  /// Compact one-line summary ("ok, 12 prints, 340 steps").
  std::string str() const;
};

/// Evaluates MiniFort programs. The interpreter itself is stateless
/// between runs: run() may be called repeatedly (with different seeds)
/// and concurrently from multiple threads on the same instance.
class Interpreter {
public:
  /// \p Prog must be Sema-checked against \p Symbols (every VarRef bound,
  /// every call resolved); both must outlive the interpreter.
  Interpreter(const Program &Prog, const SymbolTable &Symbols);

  /// Executes the program from 'main' to completion, trap, or limit.
  RunResult run(const RunOptions &Opts,
                const ExecHooks *Hooks = nullptr) const;

private:
  const Program &Prog;
  const SymbolTable &Symbols;
};

/// Statically folds an expression the way the CFG lowering does:
/// literals and unary operators over folded operands only (binary
/// expressions are deliberately not folded — see CfgBuilder). The
/// interpreter and the bytecode compiler both use it to fix the DO-loop
/// comparison direction from the step's *syntactic* constancy.
std::optional<int64_t> foldSyntacticConst(const Expr *E);

/// The value of position \p Index in the READ stream seeded with
/// \p Seed. Values lie in a small range around zero (including zero and
/// negatives) so generated programs exercise division traps and both
/// branch directions. Exposed so tests can pin the stream.
int64_t readStreamValue(uint64_t Seed, uint64_t Index);

} // namespace ipcp

#endif // IPCP_EXEC_INTERPRETER_H
