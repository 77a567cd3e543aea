//===- exec/Interpreter.cpp - MiniFort reference interpreter --------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>

using namespace ipcp;

const char *ipcp::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Ok:
    return "ok";
  case RunStatus::DivideByZero:
    return "divide-by-zero";
  case RunStatus::ArrayBounds:
    return "array-bounds";
  case RunStatus::StepLimit:
    return "step-limit";
  case RunStatus::CallDepthLimit:
    return "call-depth-limit";
  case RunStatus::MemoryLimit:
    return "memory-limit";
  }
  return "unknown";
}

std::string RunResult::str() const {
  std::ostringstream OS;
  OS << runStatusName(Status);
  if (Status != RunStatus::Ok && TrapLoc.isValid())
    OS << " at " << TrapLoc.str();
  OS << ", " << Prints.size() << " prints, " << Steps << " steps, "
     << ReadsConsumed << " reads";
  return OS.str();
}

int64_t ipcp::readStreamValue(uint64_t Seed, uint64_t Index) {
  // splitmix64 over (seed, index) so the nth value depends only on the
  // stream position, not on how earlier values were consumed.
  uint64_t X = (Seed ? Seed : 0x9e3779b97f4a7c15) +
               (Index + 1) * 0x9e3779b97f4a7c15;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9;
  X ^= X >> 27;
  X *= 0x94d049bb133111eb;
  X ^= X >> 31;
  // Small range around zero: includes 0 (division traps) and negatives
  // (descending comparisons) while keeping loop bounds modest.
  return static_cast<int64_t>(X % 41) - 8;
}

namespace {

// All arithmetic is two's-complement and wraps modulo 2^64 (computed in
// unsigned space so the interpreter itself is UB-free under UBSan even
// for adversarial programs).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Thrown on a structured trap; caught at the run() boundary.
struct TrapSignal {
  RunStatus Kind;
  SourceLoc Loc;
};

/// Statement-level control flow outcome.
enum class Flow : uint8_t { Normal, Returned };

/// One run's machine state.
class Machine {
public:
  Machine(const Program &Prog, const SymbolTable &Symbols,
          const RunOptions &Opts, const ExecHooks *Hooks)
      : Prog(Prog), Symbols(Symbols), Opts(Opts), Hooks(Hooks) {
    Globals.assign(Symbols.size(), 0);
    for (const GlobalDecl &G : Prog.Globals)
      if (G.Init)
        Globals[G.Symbol] = *G.Init;
    LiveArrayCells = declaredArrayCells(Prog.GlobalArrays);
    if (LiveArrayCells <= MaxArrayCells)
      for (const ArrayDecl &A : Prog.GlobalArrays)
        GlobalArrays.emplace(A.Symbol,
                             std::vector<int64_t>(size_t(A.Size), 0));
  }

  RunResult run() {
    auto Entry = Prog.entryProc();
    assert(Entry && "interpreter needs a sema-checked program");
    try {
      if (LiveArrayCells > MaxArrayCells)
        throw TrapSignal{RunStatus::MemoryLimit, SourceLoc()};
      invoke(*Entry, nullptr, SourceLoc());
    } catch (const TrapSignal &T) {
      Res.Status = T.Kind;
      Res.TrapLoc = T.Loc;
    }
    // Final-state capture (the engine-differential tests compare it).
    Res.FinalGlobals = std::move(Globals);
    for (auto &[Sym, Elems] : GlobalArrays)
      Res.FinalGlobalArrays.emplace_back(Sym, std::move(Elems));
    std::sort(Res.FinalGlobalArrays.begin(), Res.FinalGlobalArrays.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    return std::move(Res);
  }

private:
  /// A procedure activation. Frames are heap-allocated and node-based so
  /// the by-reference cells handed to callees stay stable.
  struct Frame {
    /// Formal name -> cell in the caller (by-reference) or in Temps
    /// (by-value expression actual).
    std::unordered_map<SymbolId, int64_t *> Refs;
    /// Locals, default-initialized to 0 on first touch (the documented
    /// uninitialized-variable policy).
    std::unordered_map<SymbolId, int64_t> Locals;
    /// Local arrays, zero-initialized per activation.
    std::unordered_map<SymbolId, std::vector<int64_t>> Arrays;
    /// Storage for by-value argument temporaries (stable addresses).
    std::deque<int64_t> Temps;
  };

  void tick(SourceLoc Loc) {
    // Trap before counting: the reported step count never exceeds the
    // budget.
    if (Res.Steps >= Opts.Limits.MaxSteps)
      throw TrapSignal{RunStatus::StepLimit, Loc};
    ++Res.Steps;
  }

  int64_t nextRead() {
    return readStreamValue(Opts.ReadSeed, Res.ReadsConsumed++);
  }

  /// Resolves a scalar symbol to its storage cell in the current frame.
  int64_t *scalarCell(SymbolId Sym) {
    const Symbol &S = Symbols.symbol(Sym);
    if (S.Kind == SymbolKind::Global)
      return &Globals[Sym];
    Frame &F = *Stack.back();
    if (auto It = F.Refs.find(Sym); It != F.Refs.end())
      return It->second;
    return &F.Locals[Sym]; // Default-inserts 0: uninitialized policy.
  }

  std::vector<int64_t> &arrayStorage(SymbolId Sym) {
    const Symbol &S = Symbols.symbol(Sym);
    if (S.Kind == SymbolKind::GlobalArray)
      return GlobalArrays.at(Sym);
    return Stack.back()->Arrays.at(Sym);
  }

  int64_t *arrayCell(const ArrayRefExpr *A) {
    int64_t Index = eval(A->index());
    std::vector<int64_t> &Elems = arrayStorage(A->symbol());
    if (Index < 1 || static_cast<uint64_t>(Index) > Elems.size())
      throw TrapSignal{RunStatus::ArrayBounds, A->loc()};
    return &Elems[size_t(Index - 1)];
  }

  int64_t eval(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return cast<IntLitExpr>(E)->value();
    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(E);
      int64_t Value = *scalarCell(V->symbol());
      if (Hooks && Hooks->OnVarUse)
        Hooks->OnVarUse(V->id(), Value);
      return Value;
    }
    case ExprKind::ArrayRef:
      return *arrayCell(cast<ArrayRefExpr>(E));
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      int64_t V = eval(U->operand());
      return U->op() == UnaryOp::Neg ? wrapNeg(V) : (V == 0 ? 1 : 0);
    }
    case ExprKind::Binary: {
      // Both operands are always evaluated (no short-circuit), matching
      // the CFG lowering's dataflow.
      const auto *B = cast<BinaryExpr>(E);
      int64_t L = eval(B->lhs());
      int64_t R = eval(B->rhs());
      switch (B->op()) {
      case BinaryOp::Add:
        return wrapAdd(L, R);
      case BinaryOp::Sub:
        return wrapSub(L, R);
      case BinaryOp::Mul:
        return wrapMul(L, R);
      case BinaryOp::Div:
        if (R == 0)
          throw TrapSignal{RunStatus::DivideByZero, B->loc()};
        if (L == INT64_MIN && R == -1)
          return INT64_MIN; // Wraps, like every other operation.
        return L / R;
      case BinaryOp::Mod:
        if (R == 0)
          throw TrapSignal{RunStatus::DivideByZero, B->loc()};
        if (L == INT64_MIN && R == -1)
          return 0;
        return L % R;
      case BinaryOp::CmpEq:
        return L == R;
      case BinaryOp::CmpNe:
        return L != R;
      case BinaryOp::CmpLt:
        return L < R;
      case BinaryOp::CmpLe:
        return L <= R;
      case BinaryOp::CmpGt:
        return L > R;
      case BinaryOp::CmpGe:
        return L >= R;
      case BinaryOp::LogicalAnd:
        return (L != 0) && (R != 0);
      case BinaryOp::LogicalOr:
        return (L != 0) || (R != 0);
      }
      break;
    }
    }
    assert(false && "unknown expression kind");
    return 0;
  }

  /// Calls \p Callee. \p Args is null for the entry procedure.
  void invoke(ProcId Callee, const std::vector<Expr *> *Args,
              SourceLoc CallLoc) {
    if (Stack.size() + 1 > Opts.Limits.MaxCallDepth)
      throw TrapSignal{RunStatus::CallDepthLimit, CallLoc};
    const Proc &P = *Prog.Procs[Callee];
    const std::vector<SymbolId> &Formals = Symbols.formals(Callee);

    auto F = std::make_unique<Frame>();
    if (Args) {
      assert(Args->size() == Formals.size() && "arity checked by sema");
      // Arguments are evaluated left to right in the caller's frame.
      // Plain scalar variables bind by reference; anything else binds a
      // fresh by-value temporary (FORTRAN expression-actual semantics).
      for (size_t I = 0; I != Args->size(); ++I) {
        const Expr *Arg = (*Args)[I];
        if (const auto *V = dyn_cast<VarRefExpr>(Arg)) {
          F->Refs[Formals[I]] = scalarCell(V->symbol());
        } else {
          F->Temps.push_back(eval(Arg));
          F->Refs[Formals[I]] = &F->Temps.back();
        }
      }
    }
    uint64_t ArrayCells = declaredArrayCells(P.LocalArrays);
    if (ArrayCells > MaxArrayCells - LiveArrayCells)
      throw TrapSignal{RunStatus::MemoryLimit, CallLoc};
    LiveArrayCells += ArrayCells;
    for (const ArrayDecl &A : P.LocalArrays)
      F->Arrays.emplace(A.Symbol, std::vector<int64_t>(size_t(A.Size), 0));

    Stack.push_back(std::move(F));
    if (Hooks && Hooks->OnProcEntry) {
      auto Lookup = [this, &Formals](SymbolId Sym) -> const int64_t * {
        const Symbol &S = Symbols.symbol(Sym);
        if (S.Kind == SymbolKind::Global)
          return &Globals[Sym];
        if (S.Kind == SymbolKind::Formal)
          for (SymbolId FS : Formals)
            if (FS == Sym)
              return Stack.back()->Refs.at(Sym);
        return nullptr;
      };
      Hooks->OnProcEntry(Callee, Lookup);
    }
    execStmts(P.Body);
    Stack.pop_back();
    LiveArrayCells -= ArrayCells;
  }

  Flow execStmts(const std::vector<Stmt *> &Stmts) {
    for (Stmt *S : Stmts)
      if (execStmt(S) == Flow::Returned)
        return Flow::Returned;
    return Flow::Normal;
  }

  Flow execStmt(Stmt *S) {
    tick(S->loc());
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (const auto *V = dyn_cast<VarRefExpr>(A->target())) {
        int64_t Value = eval(A->value());
        *scalarCell(V->symbol()) = Value;
      } else {
        // Index before value, matching the lowering's order of
        // evaluation (observable through traps).
        int64_t *Cell = arrayCell(cast<ArrayRefExpr>(A->target()));
        *Cell = eval(A->value());
      }
      return Flow::Normal;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      assert(C->callee() != UINT32_MAX && "call resolved by sema");
      invoke(C->callee(), &C->args(), C->loc());
      return Flow::Normal;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      return eval(I->cond()) != 0 ? execStmts(I->thenBody())
                                  : execStmts(I->elseBody());
    }
    case StmtKind::DoLoop: {
      const auto *D = cast<DoLoopStmt>(S);
      // Bounds and step are captured once, before the loop. The
      // comparison direction comes from the step's *syntactic*
      // constancy, exactly as the CFG lowering fixes it.
      int64_t Lo = eval(D->lo());
      int64_t Hi = eval(D->hi());
      int64_t Step = D->step() ? eval(D->step()) : 1;
      bool Descending = false;
      if (D->step())
        if (auto C = foldSyntacticConst(D->step()))
          Descending = *C < 0;
      int64_t *Var = scalarCell(D->var()->symbol());
      *Var = Lo;
      while (Descending ? *Var >= Hi : *Var <= Hi) {
        tick(D->loc());
        if (execStmts(D->body()) == Flow::Returned)
          return Flow::Returned;
        *Var = wrapAdd(*Var, Step);
      }
      return Flow::Normal;
    }
    case StmtKind::While: {
      const auto *W = cast<WhileStmt>(S);
      while (true) {
        if (eval(W->cond()) == 0)
          return Flow::Normal;
        tick(W->loc());
        if (execStmts(W->body()) == Flow::Returned)
          return Flow::Returned;
      }
    }
    case StmtKind::Print:
      Res.Prints.push_back(eval(cast<PrintStmt>(S)->value()));
      return Flow::Normal;
    case StmtKind::Read:
      *scalarCell(cast<ReadStmt>(S)->target()->symbol()) = nextRead();
      return Flow::Normal;
    case StmtKind::Return:
      return Flow::Returned;
    }
    assert(false && "unknown statement kind");
    return Flow::Normal;
  }

  const Program &Prog;
  const SymbolTable &Symbols;
  const RunOptions &Opts;
  const ExecHooks *Hooks;
  RunResult Res;
  std::vector<int64_t> Globals;
  std::unordered_map<SymbolId, std::vector<int64_t>> GlobalArrays;
  /// Declared cells of the global arrays and every active frame's local
  /// arrays (charged against MaxArrayCells).
  uint64_t LiveArrayCells = 0;
  std::vector<std::unique_ptr<Frame>> Stack;
};

} // namespace

std::optional<int64_t> ipcp::foldSyntacticConst(const Expr *E) {
  if (const auto *L = dyn_cast<IntLitExpr>(E))
    return L->value();
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    if (auto V = foldSyntacticConst(U->operand()))
      return U->op() == UnaryOp::Neg ? wrapNeg(*V) : (*V == 0 ? 1 : 0);
  }
  return std::nullopt;
}

Interpreter::Interpreter(const Program &Prog, const SymbolTable &Symbols)
    : Prog(Prog), Symbols(Symbols) {}

RunResult Interpreter::run(const RunOptions &Opts,
                           const ExecHooks *Hooks) const {
  Machine M(Prog, Symbols, Opts, Hooks);
  return M.run();
}
