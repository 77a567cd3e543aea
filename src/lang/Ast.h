//===- lang/Ast.h - MiniFort abstract syntax trees --------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node types for MiniFort and the AstContext arena that owns them.
///
/// Every expression and statement carries a program-unique id. The ids let
/// later phases attach analysis results back to source constructs: the
/// constant-substitution pass maps IR operands to VarRefExpr ids, and the
/// dead-code-elimination pass maps IR branches to IfStmt/WhileStmt ids.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_LANG_AST_H
#define IPCP_LANG_AST_H

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace ipcp {

class AstContext;

/// Program-unique id of an expression node (1-based; 0 is "no id").
using ExprId = uint32_t;
/// Program-unique id of a statement node (1-based; 0 is "no id").
using StmtId = uint32_t;
/// Index of a procedure within its Program.
using ProcId = uint32_t;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Discriminator for Expr subclasses.
enum class ExprKind : uint8_t {
  IntLit,
  VarRef,
  ArrayRef,
  Unary,
  Binary,
};

/// Binary operators. Relational and logical operators yield 0/1 integers
/// (there is only one type in MiniFort).
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div, // truncating integer division
  Mod,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  LogicalAnd,
  LogicalOr,
};

/// Unary operators.
enum class UnaryOp : uint8_t {
  Neg,
  LogicalNot,
};

/// Returns the MiniFort spelling of \p Op ("+", "<=", "and", ...).
const char *binaryOpSpelling(BinaryOp Op);
/// Returns the MiniFort spelling of \p Op ("-", "not").
const char *unaryOpSpelling(UnaryOp Op);

/// Base class of all MiniFort expressions.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }
  ExprId id() const { return Id; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc, ExprId Id)
      : Kind(Kind), Loc(Loc), Id(Id) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
  ExprId Id;
};

/// An integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(SourceLoc Loc, ExprId Id, int64_t Value)
      : Expr(ExprKind::IntLit, Loc, Id), Value(Value) {}

  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  int64_t Value;
};

/// A reference to a scalar variable (global, formal, or local). Sema fills
/// in the resolved symbol id.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, ExprId Id, std::string Name)
      : Expr(ExprKind::VarRef, Loc, Id), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  uint32_t symbol() const { return Symbol; }
  void setSymbol(uint32_t Sym) { Symbol = Sym; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

private:
  std::string Name;
  uint32_t Symbol = UINT32_MAX;
};

/// A subscripted array reference a(i). Sema fills in the resolved symbol.
class ArrayRefExpr : public Expr {
public:
  ArrayRefExpr(SourceLoc Loc, ExprId Id, std::string Name, Expr *Index)
      : Expr(ExprKind::ArrayRef, Loc, Id), Name(std::move(Name)),
        Index(Index) {}

  const std::string &name() const { return Name; }
  Expr *index() const { return Index; }
  uint32_t symbol() const { return Symbol; }
  void setSymbol(uint32_t Sym) { Symbol = Sym; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayRef;
  }

private:
  std::string Name;
  Expr *Index;
  uint32_t Symbol = UINT32_MAX;
};

/// A unary operation.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, ExprId Id, UnaryOp Op, Expr *Operand)
      : Expr(ExprKind::Unary, Loc, Id), Op(Op), Operand(Operand) {}

  UnaryOp op() const { return Op; }
  Expr *operand() const { return Operand; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  Expr *Operand;
};

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, ExprId Id, BinaryOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(ExprKind::Binary, Loc, Id), Op(Op), Lhs(Lhs), Rhs(Rhs) {}

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return Lhs; }
  Expr *rhs() const { return Rhs; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Discriminator for Stmt subclasses.
enum class StmtKind : uint8_t {
  Assign,
  Call,
  If,
  DoLoop,
  While,
  Print,
  Read,
  Return,
};

/// Base class of all MiniFort statements.
class Stmt {
public:
  StmtKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }
  StmtId id() const { return Id; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc, StmtId Id)
      : Kind(Kind), Loc(Loc), Id(Id) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
  StmtId Id;
};

/// Assignment to a scalar variable or an array element. The target is a
/// VarRefExpr or ArrayRefExpr.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, StmtId Id, Expr *Target, Expr *Value)
      : Stmt(StmtKind::Assign, Loc, Id), Target(Target), Value(Value) {}

  Expr *target() const { return Target; }
  Expr *value() const { return Value; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  Expr *Target;
  Expr *Value;
};

/// A call statement. Sema fills in the callee ProcId. Arguments that are
/// plain scalar VarRefs bind by reference (FORTRAN semantics); any other
/// argument expression binds to a fresh by-value temporary.
class CallStmt : public Stmt {
public:
  CallStmt(SourceLoc Loc, StmtId Id, std::string Callee,
           std::vector<Expr *> Args)
      : Stmt(StmtKind::Call, Loc, Id), CalleeName(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &calleeName() const { return CalleeName; }
  const std::vector<Expr *> &args() const { return Args; }
  ProcId callee() const { return Callee; }
  void setCallee(ProcId P) { Callee = P; }
  /// Retargets the call (procedure cloning); invalidates the resolved
  /// callee until Sema runs again.
  void setCalleeName(std::string Name) {
    CalleeName = std::move(Name);
    Callee = UINT32_MAX;
  }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Call; }

private:
  std::string CalleeName;
  std::vector<Expr *> Args;
  ProcId Callee = UINT32_MAX;
};

/// An if/then/else statement. "elseif" chains are represented as a nested
/// IfStmt as the sole statement of the else block.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, StmtId Id, Expr *Cond, std::vector<Stmt *> Then,
         std::vector<Stmt *> Else)
      : Stmt(StmtKind::If, Loc, Id), Cond(Cond), Then(std::move(Then)),
        Else(std::move(Else)) {}

  Expr *cond() const { return Cond; }
  const std::vector<Stmt *> &thenBody() const { return Then; }
  const std::vector<Stmt *> &elseBody() const { return Else; }

  /// Replaces the arms (dead-code elimination rewrites trees in place).
  void setThenBody(std::vector<Stmt *> Body) { Then = std::move(Body); }
  void setElseBody(std::vector<Stmt *> Body) { Else = std::move(Body); }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  std::vector<Stmt *> Then;
  std::vector<Stmt *> Else;
};

/// A counted DO loop: do v = lo, hi [, step]. The step defaults to 1.
class DoLoopStmt : public Stmt {
public:
  DoLoopStmt(SourceLoc Loc, StmtId Id, VarRefExpr *Var, Expr *Lo, Expr *Hi,
             Expr *Step, std::vector<Stmt *> Body)
      : Stmt(StmtKind::DoLoop, Loc, Id), Var(Var), Lo(Lo), Hi(Hi),
        Step(Step), Body(std::move(Body)) {}

  VarRefExpr *var() const { return Var; }
  Expr *lo() const { return Lo; }
  Expr *hi() const { return Hi; }
  /// Null when the step was omitted (defaults to 1).
  Expr *step() const { return Step; }
  const std::vector<Stmt *> &body() const { return Body; }

  /// Replaces the body (dead-code elimination rewrites trees in place).
  void setBody(std::vector<Stmt *> NewBody) { Body = std::move(NewBody); }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::DoLoop; }

private:
  VarRefExpr *Var;
  Expr *Lo;
  Expr *Hi;
  Expr *Step;
  std::vector<Stmt *> Body;
};

/// A while loop.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, StmtId Id, Expr *Cond, std::vector<Stmt *> Body)
      : Stmt(StmtKind::While, Loc, Id), Cond(Cond), Body(std::move(Body)) {}

  Expr *cond() const { return Cond; }
  const std::vector<Stmt *> &body() const { return Body; }

  /// Replaces the body (dead-code elimination rewrites trees in place).
  void setBody(std::vector<Stmt *> NewBody) { Body = std::move(NewBody); }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  Expr *Cond;
  std::vector<Stmt *> Body;
};

/// print <expr>: a use of the expression with no dataflow effect.
class PrintStmt : public Stmt {
public:
  PrintStmt(SourceLoc Loc, StmtId Id, Expr *Value)
      : Stmt(StmtKind::Print, Loc, Id), Value(Value) {}

  Expr *value() const { return Value; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Print; }

private:
  Expr *Value;
};

/// read <var>: assigns an unknowable runtime value to a scalar variable.
/// This models the paper's "values read from a file" (§2) and is the
/// canonical source of BOTTOM in the workloads.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, StmtId Id, VarRefExpr *Target)
      : Stmt(StmtKind::Read, Loc, Id), Target(Target) {}

  VarRefExpr *target() const { return Target; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Read; }

private:
  VarRefExpr *Target;
};

/// An early return from the enclosing procedure.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, StmtId Id) : Stmt(StmtKind::Return, Loc, Id) {}

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A global scalar declaration with an optional compile-time initializer
/// (the analogue of a FORTRAN DATA statement). Initialized globals are
/// lowered into a prologue of the entry procedure.
struct GlobalDecl {
  SourceLoc Loc;
  std::string Name;
  std::optional<int64_t> Init;
  uint32_t Symbol = UINT32_MAX; // Filled in by Sema.
};

/// An array declaration (global or procedure-local). Arrays are opaque to
/// the constant propagator (paper §4, limitation 2).
struct ArrayDecl {
  SourceLoc Loc;
  std::string Name;
  int64_t Size = 0;
  uint32_t Symbol = UINT32_MAX; // Filled in by Sema.
};

/// One procedure: formal parameter names, local declarations, and a body.
class Proc {
public:
  Proc(SourceLoc Loc, std::string Name, std::vector<std::string> Formals)
      : Loc(Loc), Name(std::move(Name)), Formals(std::move(Formals)) {}

  SourceLoc loc() const { return Loc; }
  const std::string &name() const { return Name; }
  const std::vector<std::string> &formals() const { return Formals; }

  std::vector<std::string> Locals;    ///< Declared scalar locals.
  std::vector<ArrayDecl> LocalArrays; ///< Declared local arrays.
  std::vector<Stmt *> Body;

  /// Resolved symbol ids of the formals, parallel to formals(). Filled in
  /// by Sema.
  std::vector<uint32_t> FormalSymbols;
  /// Resolved symbol ids of the scalar locals, parallel to Locals.
  std::vector<uint32_t> LocalSymbols;

private:
  SourceLoc Loc;
  std::string Name;
  std::vector<std::string> Formals;
};

/// A whole MiniFort program: globals, arrays, and procedures. The entry
/// procedure is the one named "main".
class Program {
public:
  std::string Name;
  std::vector<GlobalDecl> Globals;
  std::vector<ArrayDecl> GlobalArrays;
  std::vector<std::unique_ptr<Proc>> Procs;

  /// Returns the index of the procedure named \p Name, or nullopt.
  std::optional<ProcId> findProc(const std::string &Name) const;

  /// Returns the entry procedure id ("main"), or nullopt if absent.
  std::optional<ProcId> entryProc() const { return findProc("main"); }
};

//===----------------------------------------------------------------------===//
// AstContext
//===----------------------------------------------------------------------===//

/// Arena that owns every AST node of one program and hands out the
/// program-unique expression/statement ids. Nodes live in a bump arena
/// and are freed wholesale when the context dies; only nodes with
/// non-trivial destructors (names, child lists) are tracked so their
/// destructors run — the bulk of a program (literals, operators) needs
/// no per-node bookkeeping at all.
class AstContext {
public:
  AstContext() = default;
  AstContext(const AstContext &) = delete;
  AstContext &operator=(const AstContext &) = delete;
  ~AstContext() {
    for (auto It = NonTrivial.rbegin(), E = NonTrivial.rend(); It != E; ++It)
      It->Dtor(It->Node);
  }

  /// Allocates an expression node of type \p T; the id is assigned
  /// automatically as the first constructor argument after Loc.
  template <typename T, typename... Args>
  T *createExpr(SourceLoc Loc, Args &&...Rest) {
    return createNode<T>(Loc, NextExprId++, std::forward<Args>(Rest)...);
  }

  /// Allocates a statement node of type \p T.
  template <typename T, typename... Args>
  T *createStmt(SourceLoc Loc, Args &&...Rest) {
    return createNode<T>(Loc, NextStmtId++, std::forward<Args>(Rest)...);
  }

  /// Allocates an expression node under a caller-chosen id, for
  /// id-preserving clones; the caller keeps ids program-unique.
  template <typename T, typename... Args>
  T *createExprWithId(ExprId Id, SourceLoc Loc, Args &&...Rest) {
    return createNode<T>(Loc, Id, std::forward<Args>(Rest)...);
  }

  /// Allocates a statement node under a caller-chosen id.
  template <typename T, typename... Args>
  T *createStmtWithId(StmtId Id, SourceLoc Loc, Args &&...Rest) {
    return createNode<T>(Loc, Id, std::forward<Args>(Rest)...);
  }

  /// Continues id assignment where \p Src's would: the next nodes created
  /// here get the ids \p Src would hand out next.
  void continueIdsFrom(const AstContext &Src) {
    NextExprId = Src.NextExprId;
    NextStmtId = Src.NextStmtId;
  }

  ExprId numExprIds() const { return NextExprId; }
  StmtId numStmtIds() const { return NextStmtId; }

  Program &program() { return Prog; }
  const Program &program() const { return Prog; }

private:
  template <typename T, typename... Args>
  T *createNode(SourceLoc Loc, uint32_t Id, Args &&...Rest) {
    T *Raw = new (Arena.allocate(sizeof(T), alignof(T)))
        T(Loc, Id, std::forward<Args>(Rest)...);
    // Nodes are kind-tagged, not virtual, so destruction must go through
    // the concrete type.
    if constexpr (!std::is_trivially_destructible_v<T>)
      NonTrivial.push_back(
          {Raw, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Raw;
  }

  struct PendingDtor {
    void *Node;
    void (*Dtor)(void *);
  };

  Program Prog;
  BumpArena Arena;
  std::vector<PendingDtor> NonTrivial;
  ExprId NextExprId = 1;
  StmtId NextStmtId = 1;
};

} // namespace ipcp

#endif // IPCP_LANG_AST_H
