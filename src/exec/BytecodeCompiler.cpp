//===- exec/BytecodeCompiler.cpp - AST -> bytecode lowering ---------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/BytecodeCompiler.h"

#include "exec/Interpreter.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace ipcp;

namespace {

/// Where a scalar symbol lives, resolved once per procedure.
struct ScalarSlot {
  enum Kind : uint8_t { Global, Formal, Local } Where;
  uint32_t Slot;
};

class ProcCompiler {
public:
  ProcCompiler(const Program &Prog, const SymbolTable &Symbols,
               const CodeProgram &CP, ProcId P, CodeObject &CO)
      : Symbols(Symbols), CP(CP), CO(CO) {
    CO.Name = Prog.Procs[P]->name();

    const std::vector<SymbolId> &Formals = Symbols.formals(P);
    CO.NumFormals = static_cast<uint32_t>(Formals.size());
    CO.FormalSyms = Formals;
    for (uint32_t I = 0; I != CO.NumFormals; ++I)
      Slots.emplace(Formals[I], ScalarSlot{ScalarSlot::Formal, I});

    NextSlot = CO.NumFormals;
    for (SymbolId Sym : Symbols.locals(P))
      Slots.emplace(Sym, ScalarSlot{ScalarSlot::Local, NextSlot++});
    // DO-loop bound/step temporaries are appended behind the declared
    // locals as the walk encounters loops; local arrays go behind those,
    // so their frame offsets are only fixed after the body is emitted.
  }

  void compile(const Proc &P) {
    emitStmts(P.Body);
    emit(Op::Ret); // Implicit return at the end of the body.

    CO.ArrayBase = NextSlot;
    uint32_t ArraySlot = NextSlot;
    for (const ArrayDecl &A : P.LocalArrays) {
      uint32_t Idx = static_cast<uint32_t>(CO.LocalArrays.size());
      CO.LocalArrays.push_back({ArraySlot, A.Size, A.Symbol});
      LocalArrayIdx.emplace(A.Symbol, Idx);
      ArraySlot += static_cast<uint32_t>(A.Size);
    }
    CO.FrameSlots = ArraySlot;
    CO.ArrayCells = declaredArrayCells(P.LocalArrays);
    // Local-array operands were emitted before the table existed (loop
    // temporaries keep moving ArrayBase during the walk); resolve them
    // now.
    for (auto &[Pc, Sym] : PendingArrays)
      CO.Code[Pc].A = LocalArrayIdx.at(Sym);
    CO.MaxStack = std::max<uint32_t>(CO.MaxStack, 2);
  }

private:
  //===--------------------------------------------------------------------===//
  // Emission primitives
  //===--------------------------------------------------------------------===//

  uint32_t emit(Op O, uint32_t A = 0, uint32_t B = 0) {
    CO.Code.push_back({O, A, B});
    return static_cast<uint32_t>(CO.Code.size() - 1);
  }

  uint32_t locIdx(SourceLoc L) {
    if (!CO.Locs.empty() && CO.Locs.back() == L)
      return static_cast<uint32_t>(CO.Locs.size() - 1);
    CO.Locs.push_back(L);
    return static_cast<uint32_t>(CO.Locs.size() - 1);
  }

  uint32_t constIdx(int64_t V) {
    if (auto It = ConstIdx.find(V); It != ConstIdx.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(CO.Consts.size());
    CO.Consts.push_back(V);
    ConstIdx.emplace(V, Idx);
    return Idx;
  }

  void patch(uint32_t JumpPc) {
    CO.Code[JumpPc].A = static_cast<uint32_t>(CO.Code.size());
  }

  /// Operand-stack bookkeeping: the compiler simulates the depth so the
  /// VM can preallocate one exact-size stack and run without bounds
  /// checks.
  void push(uint32_t N = 1) {
    Depth += N;
    CO.MaxStack = std::max(CO.MaxStack, Depth);
  }
  void pop(uint32_t N = 1) {
    assert(Depth >= N && "operand stack underflow in compiler");
    Depth -= N;
  }

  uint32_t newTemp() { return NextSlot++; }

  //===--------------------------------------------------------------------===//
  // Scalar and array access
  //===--------------------------------------------------------------------===//

  ScalarSlot scalarSlot(SymbolId Sym) {
    if (auto It = Slots.find(Sym); It != Slots.end())
      return It->second;
    assert(Sym < CP.GlobalSlotOfSymbol.size() &&
           CP.GlobalSlotOfSymbol[Sym] >= 0 && "unbound scalar symbol");
    return {ScalarSlot::Global,
            static_cast<uint32_t>(CP.GlobalSlotOfSymbol[Sym])};
  }

  /// Emits a scalar read. \p Id is the VarRefExpr id for the OnVarUse
  /// hook; 0 marks a compiler-internal read (DO-loop bookkeeping) that
  /// must stay invisible to hooks.
  void emitLoadScalar(SymbolId Sym, ExprId Id) {
    ScalarSlot S = scalarSlot(Sym);
    static constexpr Op Ld[] = {Op::LoadGlobal, Op::LoadFormal, Op::LoadLocal};
    emit(S.Where == ScalarSlot::Global   ? Ld[0]
         : S.Where == ScalarSlot::Formal ? Ld[1]
                                         : Ld[2],
         S.Slot, Id);
    push();
  }

  void emitStoreScalar(SymbolId Sym) {
    ScalarSlot S = scalarSlot(Sym);
    emit(S.Where == ScalarSlot::Global   ? Op::StoreGlobal
         : S.Where == ScalarSlot::Formal ? Op::StoreFormal
                                         : Op::StoreLocal,
         S.Slot);
    pop();
  }

  /// Resolves an array symbol to (is-global, table index); local array
  /// operands are recorded for fixup since their table is built after
  /// the body walk.
  bool arrayOperand(const ArrayRefExpr *A, uint32_t EmittedPc) {
    const Symbol &S = Symbols.symbol(A->symbol());
    if (S.Kind == SymbolKind::GlobalArray) {
      for (uint32_t I = 0; I != CP.GlobalArrays.size(); ++I)
        if (CP.GlobalArrays[I].Symbol == A->symbol()) {
          CO.Code[EmittedPc].A = I;
          return true;
        }
      assert(false && "global array not in table");
    }
    PendingArrays.emplace_back(EmittedPc, A->symbol());
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  void emitExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      emit(Op::PushConst, constIdx(cast<IntLitExpr>(E)->value()));
      push();
      return;
    case ExprKind::VarRef: {
      const auto *V = cast<VarRefExpr>(E);
      emitLoadScalar(V->symbol(), V->id());
      return;
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRefExpr>(E);
      emitExpr(A->index());
      uint32_t Pc = emit(Op::LoadArrLocal, 0, locIdx(A->loc()));
      if (arrayOperand(A, Pc))
        CO.Code[Pc].Opcode = Op::LoadArrGlobal;
      return; // Pops the index, pushes the element: depth unchanged.
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      emitExpr(U->operand());
      emit(U->op() == UnaryOp::Neg ? Op::Neg : Op::LogNot);
      return;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      emitExpr(B->lhs());
      emitExpr(B->rhs());
      uint32_t Loc = 0;
      Op O = Op::Add;
      switch (B->op()) {
      case BinaryOp::Add:
        O = Op::Add;
        break;
      case BinaryOp::Sub:
        O = Op::Sub;
        break;
      case BinaryOp::Mul:
        O = Op::Mul;
        break;
      case BinaryOp::Div:
        O = Op::Div;
        Loc = locIdx(B->loc());
        break;
      case BinaryOp::Mod:
        O = Op::Mod;
        Loc = locIdx(B->loc());
        break;
      case BinaryOp::CmpEq:
        O = Op::CmpEq;
        break;
      case BinaryOp::CmpNe:
        O = Op::CmpNe;
        break;
      case BinaryOp::CmpLt:
        O = Op::CmpLt;
        break;
      case BinaryOp::CmpLe:
        O = Op::CmpLe;
        break;
      case BinaryOp::CmpGt:
        O = Op::CmpGt;
        break;
      case BinaryOp::CmpGe:
        O = Op::CmpGe;
        break;
      case BinaryOp::LogicalAnd:
        O = Op::LogAnd;
        break;
      case BinaryOp::LogicalOr:
        O = Op::LogOr;
        break;
      }
      emit(O, 0, Loc);
      pop();
      return;
    }
    }
    assert(false && "unknown expression kind");
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void emitStmts(const std::vector<Stmt *> &Stmts) {
    for (const Stmt *S : Stmts)
      emitStmt(S);
  }

  void emitStmt(const Stmt *S) {
    emit(Op::Step, 0, locIdx(S->loc()));
    switch (S->kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (const auto *V = dyn_cast<VarRefExpr>(A->target())) {
        emitExpr(A->value());
        emitStoreScalar(V->symbol());
        return;
      }
      // Array target: the index is evaluated and bounds-checked before
      // the value, matching the interpreter's trap order.
      const auto *T = cast<ArrayRefExpr>(A->target());
      emitExpr(T->index());
      uint32_t Pc = emit(Op::AddrArrLocal, 0, locIdx(T->loc()));
      bool Global = arrayOperand(T, Pc);
      if (Global)
        CO.Code[Pc].Opcode = Op::AddrArrGlobal;
      emitExpr(A->value());
      emit(Global ? Op::StoreArrGlobal : Op::StoreArrLocal);
      pop(2);
      return;
    }
    case StmtKind::Call: {
      const auto *C = cast<CallStmt>(S);
      assert(C->callee() != UINT32_MAX && "call resolved by sema");
      // Depth is checked before any argument is evaluated, like the
      // interpreter's invoke() entry check.
      emit(Op::CheckCall, 0, locIdx(C->loc()));
      for (const Expr *Arg : C->args()) {
        if (const auto *V = dyn_cast<VarRefExpr>(Arg)) {
          // Plain-variable actual: pass the cell, read no value.
          ScalarSlot SS = scalarSlot(V->symbol());
          emit(SS.Where == ScalarSlot::Global   ? Op::ArgCellGlobal
               : SS.Where == ScalarSlot::Formal ? Op::ArgCellFormal
                                                : Op::ArgCellLocal,
               SS.Slot);
        } else {
          emitExpr(Arg);
          emit(Op::ArgValue);
          pop();
        }
      }
      emit(Op::Call, C->callee(), locIdx(C->loc()));
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      emitExpr(I->cond());
      uint32_t ToElse = emit(Op::JumpIfZero);
      pop();
      emitStmts(I->thenBody());
      if (I->elseBody().empty()) {
        patch(ToElse);
        return;
      }
      uint32_t ToEnd = emit(Op::Jump);
      patch(ToElse);
      emitStmts(I->elseBody());
      patch(ToEnd);
      return;
    }
    case StmtKind::DoLoop:
      emitDoLoop(cast<DoLoopStmt>(S));
      return;
    case StmtKind::While: {
      const auto *W = cast<WhileStmt>(S);
      uint32_t Head = static_cast<uint32_t>(CO.Code.size());
      emitExpr(W->cond());
      uint32_t ToExit = emit(Op::JumpIfZero);
      pop();
      emit(Op::Step, 0, locIdx(W->loc())); // One tick per iteration.
      emitStmts(W->body());
      emit(Op::Jump, Head);
      patch(ToExit);
      return;
    }
    case StmtKind::Print:
      emitExpr(cast<PrintStmt>(S)->value());
      emit(Op::Print);
      pop();
      return;
    case StmtKind::Read:
      emit(Op::Read);
      push();
      emitStoreScalar(cast<ReadStmt>(S)->target()->symbol());
      return;
    case StmtKind::Return:
      emit(Op::Ret);
      return;
    }
    assert(false && "unknown statement kind");
  }

  void emitDoLoop(const DoLoopStmt *D) {
    // Bounds and step are captured once, before the loop variable is
    // set (the interpreter evaluates lo, hi, step, then assigns), into
    // per-loop frame temporaries. The comparison direction is fixed at
    // compile time from the step's syntactic constancy, exactly as the
    // CFG lowering does.
    uint32_t HiTemp = newTemp();
    uint32_t StepTemp = newTemp();
    emitExpr(D->lo()); // Stays on the stack while hi/step evaluate.
    emitExpr(D->hi());
    emit(Op::StoreLocal, HiTemp);
    pop();
    if (D->step())
      emitExpr(D->step());
    else {
      emit(Op::PushConst, constIdx(1));
      push();
    }
    emit(Op::StoreLocal, StepTemp);
    pop();
    emitStoreScalar(D->var()->symbol()); // *var = lo
    bool Descending = false;
    if (D->step())
      if (auto C = foldSyntacticConst(D->step()))
        Descending = *C < 0;

    uint32_t Head = static_cast<uint32_t>(CO.Code.size());
    emitLoadScalar(D->var()->symbol(), 0); // Internal read: no hook.
    emit(Op::LoadLocal, HiTemp);
    push();
    emit(Descending ? Op::CmpGe : Op::CmpLe);
    pop();
    uint32_t ToExit = emit(Op::JumpIfZero);
    pop();
    emit(Op::Step, 0, locIdx(D->loc())); // One tick per iteration.
    emitStmts(D->body());
    emitLoadScalar(D->var()->symbol(), 0);
    emit(Op::LoadLocal, StepTemp);
    push();
    emit(Op::Add);
    pop();
    emitStoreScalar(D->var()->symbol());
    emit(Op::Jump, Head);
    patch(ToExit);
  }

  const SymbolTable &Symbols;
  const CodeProgram &CP;
  CodeObject &CO;
  std::unordered_map<SymbolId, ScalarSlot> Slots;
  std::unordered_map<SymbolId, uint32_t> LocalArrayIdx;
  std::unordered_map<int64_t, uint32_t> ConstIdx;
  std::vector<std::pair<uint32_t, SymbolId>> PendingArrays;
  uint32_t NextSlot = 0;
  uint32_t Depth = 0;
};

} // namespace

CodeProgram ipcp::compileProgram(const Program &Prog,
                                 const SymbolTable &Symbols) {
  CodeProgram CP;
  CP.NumSymbols = static_cast<uint32_t>(Symbols.size());

  CP.GlobalSlotOfSymbol.assign(Symbols.size(), -1);
  for (SymbolId Sym : Symbols.globalScalars()) {
    CP.GlobalSlotOfSymbol[Sym] = static_cast<int32_t>(CP.GlobalSyms.size());
    CP.GlobalSyms.push_back(Sym);
  }
  for (const GlobalDecl &G : Prog.Globals)
    if (G.Init)
      CP.GlobalInits.emplace_back(
          static_cast<uint32_t>(CP.GlobalSlotOfSymbol[G.Symbol]), *G.Init);

  uint32_t ArrOffset = 0;
  for (const ArrayDecl &A : Prog.GlobalArrays) {
    CP.GlobalArrays.push_back({ArrOffset, A.Size, A.Symbol});
    ArrOffset += static_cast<uint32_t>(A.Size);
  }
  CP.GlobalArraySlots = ArrOffset;
  CP.GlobalArrayCells = declaredArrayCells(Prog.GlobalArrays);

  auto Entry = Prog.entryProc();
  assert(Entry && "bytecode compiler needs a sema-checked program");
  CP.Entry = *Entry;

  CP.Procs.resize(Prog.Procs.size());
  for (ProcId P = 0; P != Prog.Procs.size(); ++P) {
    ProcCompiler PC(Prog, Symbols, CP, P, CP.Procs[P]);
    PC.compile(*Prog.Procs[P]);
    CP.MaxStack = std::max(CP.MaxStack, CP.Procs[P].MaxStack);
  }
  return CP;
}
