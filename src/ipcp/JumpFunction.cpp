//===- ipcp/JumpFunction.cpp - Forward and return jump functions ----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/JumpFunction.h"

#include <cassert>

using namespace ipcp;

const char *ipcp::jumpFunctionKindName(JumpFunctionKind Kind) {
  switch (Kind) {
  case JumpFunctionKind::Literal:
    return "literal";
  case JumpFunctionKind::IntraConst:
    return "intraprocedural";
  case JumpFunctionKind::PassThrough:
    return "pass-through";
  case JumpFunctionKind::Polynomial:
    return "polynomial";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// JfExpr
//===----------------------------------------------------------------------===//

std::unique_ptr<JfExpr> JfExpr::fromVn(const VnExpr *E, bool AllowGated) {
  assert(E && (AllowGated ? isGatedParamExpr(E) : isParamExpr(E)) &&
         "jump function expression must be evaluable");
  auto Out = std::make_unique<JfExpr>();
  switch (E->Kind) {
  case VnKind::Const:
    Out->Kind = Node::Const;
    Out->ConstValue = E->ConstValue;
    break;
  case VnKind::Param:
    Out->Kind = Node::Param;
    Out->Param = E->Param;
    break;
  case VnKind::Unary:
    Out->Kind = Node::Unary;
    Out->UOp = E->UOp;
    Out->Lhs = fromVn(E->Lhs, AllowGated);
    break;
  case VnKind::Binary:
    Out->Kind = Node::Binary;
    Out->BOp = E->BOp;
    Out->Lhs = fromVn(E->Lhs, AllowGated);
    Out->Rhs = fromVn(E->Rhs, AllowGated);
    break;
  case VnKind::Gamma: {
    Out->Kind = Node::Gamma;
    Out->Cond = fromVn(E->Cond, AllowGated);
    auto arm = [&](const VnExpr *Arm) -> std::unique_ptr<JfExpr> {
      if (Arm->isOpaque()) {
        auto U = std::make_unique<JfExpr>();
        U->Kind = Node::Unknown;
        return U;
      }
      return fromVn(Arm, AllowGated);
    };
    Out->Lhs = arm(E->Lhs);
    Out->Rhs = arm(E->Rhs);
    break;
  }
  case VnKind::Opaque:
    assert(false && "unreachable: opacity checked above");
    break;
  }
  return Out;
}

std::unique_ptr<JfExpr> JfExpr::clone() const {
  auto Out = std::make_unique<JfExpr>();
  Out->Kind = Kind;
  Out->ConstValue = ConstValue;
  Out->Param = Param;
  Out->UOp = UOp;
  Out->BOp = BOp;
  if (Lhs)
    Out->Lhs = Lhs->clone();
  if (Rhs)
    Out->Rhs = Rhs->clone();
  if (Cond)
    Out->Cond = Cond->clone();
  return Out;
}

LatticeValue
JfExpr::eval(const std::function<LatticeValue(SymbolId)> &Env) const {
  switch (Kind) {
  case Node::Const:
    return LatticeValue::constant(ConstValue);
  case Node::Param:
    return Env(Param);
  case Node::Unary: {
    LatticeValue V = Lhs->eval(Env);
    if (V.isConst())
      return LatticeValue::constant(evalUnaryOp(UOp, V.value()));
    return V;
  }
  case Node::Binary: {
    LatticeValue L = Lhs->eval(Env);
    LatticeValue R = Rhs->eval(Env);
    if (L.isBottom() || R.isBottom())
      return LatticeValue::bottom();
    if (L.isTop() || R.isTop())
      return LatticeValue::top();
    int64_t Result;
    if (!evalBinaryOp(BOp, L.value(), R.value(), Result))
      return LatticeValue::bottom(); // Division by zero at evaluation.
    return LatticeValue::constant(Result);
  }
  case Node::Gamma: {
    LatticeValue C = Cond->eval(Env);
    if (C.isTop())
      return LatticeValue::top();
    if (C.isConst())
      return (C.value() != 0 ? Lhs : Rhs)->eval(Env);
    // Unknown predicate: sound to take the meet of both arms.
    return Lhs->eval(Env).meet(Rhs->eval(Env));
  }
  case Node::Unknown:
    return LatticeValue::bottom();
  }
  return LatticeValue::bottom();
}

void JfExpr::collectSupport(std::vector<SymbolId> &Support) const {
  switch (Kind) {
  case Node::Const:
    return;
  case Node::Param:
    for (SymbolId S : Support)
      if (S == Param)
        return;
    Support.push_back(Param);
    return;
  case Node::Unary:
    Lhs->collectSupport(Support);
    return;
  case Node::Binary:
    Lhs->collectSupport(Support);
    Rhs->collectSupport(Support);
    return;
  case Node::Gamma:
    Cond->collectSupport(Support);
    Lhs->collectSupport(Support);
    Rhs->collectSupport(Support);
    return;
  case Node::Unknown:
    return;
  }
}

void JfExpr::appendFingerprint(std::string &Out) const {
  switch (Kind) {
  case Node::Const:
    Out += 'c';
    Out += std::to_string(ConstValue);
    Out += ';';
    return;
  case Node::Param:
    Out += 'p';
    Out += std::to_string(Param);
    Out += ';';
    return;
  case Node::Unary:
    Out += 'u';
    Out += std::to_string(static_cast<unsigned>(UOp));
    Out += '(';
    Lhs->appendFingerprint(Out);
    Out += ')';
    return;
  case Node::Binary:
    Out += 'b';
    Out += std::to_string(static_cast<unsigned>(BOp));
    Out += '(';
    Lhs->appendFingerprint(Out);
    Rhs->appendFingerprint(Out);
    Out += ')';
    return;
  case Node::Gamma:
    Out += "g(";
    Cond->appendFingerprint(Out);
    Lhs->appendFingerprint(Out);
    Rhs->appendFingerprint(Out);
    Out += ')';
    return;
  case Node::Unknown:
    Out += '?';
    return;
  }
}

std::string JfExpr::str(const SymbolTable &Symbols) const {
  switch (Kind) {
  case Node::Const:
    return std::to_string(ConstValue);
  case Node::Param:
    return Symbols.symbol(Param).Name;
  case Node::Unary:
    return std::string(unaryOpSpelling(UOp)) + "(" + Lhs->str(Symbols) + ")";
  case Node::Binary:
    return "(" + Lhs->str(Symbols) + " " + binaryOpSpelling(BOp) + " " +
           Rhs->str(Symbols) + ")";
  case Node::Gamma:
    return "gamma(" + Cond->str(Symbols) + ", " + Lhs->str(Symbols) +
           ", " + Rhs->str(Symbols) + ")";
  case Node::Unknown:
    return "?";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// JumpFunction
//===----------------------------------------------------------------------===//

JumpFunction JumpFunction::constant(int64_t Value) {
  JumpFunction J;
  J.F = Form::Const;
  J.ConstValue = Value;
  return J;
}

JumpFunction JumpFunction::passThrough(SymbolId Sym) {
  JumpFunction J;
  J.F = Form::PassThrough;
  J.Pass = Sym;
  J.Support = {Sym};
  return J;
}

JumpFunction JumpFunction::polynomial(std::unique_ptr<JfExpr> Expr) {
  JumpFunction J;
  J.F = Form::Poly;
  J.Expr = std::move(Expr);
  J.Expr->collectSupport(J.Support);
  return J;
}

int64_t JumpFunction::constValue() const {
  assert(F == Form::Const && "constValue() on a non-constant jump function");
  return ConstValue;
}

JumpFunction JumpFunction::classify(JumpFunctionKind Kind, const VnExpr *E,
                                    bool IsLiteralOperand,
                                    bool AllowGated) {
  // Literal: a textual scan of the call site, no value numbering at all
  // (§3.1.1). It therefore misses constants that only gcp discovers and
  // all implicitly-passed globals.
  if (Kind == JumpFunctionKind::Literal) {
    if (IsLiteralOperand) {
      assert(E->isConst() && "literal operand must number to a constant");
      return constant(E->ConstValue);
    }
    return bottom();
  }

  // Every other kind starts from gcp(y, s): a value-numbered constant.
  if (E->isConst())
    return constant(E->ConstValue);
  if (Kind == JumpFunctionKind::IntraConst)
    return bottom();

  // Pass-through: an entry parameter transmitted unmodified (§3.1.3),
  // including one copy propagation recovered from an array cell.
  if (E->isParam())
    return passThrough(E->Param);
  if (Kind == JumpFunctionKind::PassThrough)
    return bottom();

  // Polynomial: any opaque-free expression over the entry parameters
  // (§3.1.4).
  if (isParamExpr(E))
    return polynomial(JfExpr::fromVn(E));
  // Gated polynomial (§4.2): gamma arms may be unknowable as long as the
  // predicates are evaluable.
  if (AllowGated && isGatedParamExpr(E))
    return polynomial(JfExpr::fromVn(E, /*AllowGated=*/true));
  return bottom();
}

LatticeValue
JumpFunction::eval(const std::function<LatticeValue(SymbolId)> &Env) const {
  switch (F) {
  case Form::Bottom:
    return LatticeValue::bottom();
  case Form::Const:
    return LatticeValue::constant(ConstValue);
  case Form::PassThrough:
    return Env(Pass);
  case Form::Poly:
    return Expr->eval(Env);
  }
  return LatticeValue::bottom();
}

void JumpFunction::appendFingerprint(std::string &Out) const {
  switch (F) {
  case Form::Bottom:
    Out += 'B';
    return;
  case Form::Const:
    Out += 'C';
    Out += std::to_string(ConstValue);
    Out += ';';
    return;
  case Form::PassThrough:
    Out += 'P';
    Out += std::to_string(Pass);
    Out += ';';
    return;
  case Form::Poly:
    Out += 'Y';
    Expr->appendFingerprint(Out);
    return;
  }
}

std::string JumpFunction::str(const SymbolTable &Symbols) const {
  switch (F) {
  case Form::Bottom:
    return "_|_";
  case Form::Const:
    return std::to_string(ConstValue);
  case Form::PassThrough:
    return "passthrough(" + Symbols.symbol(Pass).Name + ")";
  case Form::Poly:
    return "poly(" + Expr->str(Symbols) + ")";
  }
  return "?";
}

JumpFunction JumpFunction::clone() const {
  JumpFunction J;
  J.F = F;
  J.ConstValue = ConstValue;
  J.Pass = Pass;
  if (Expr)
    J.Expr = Expr->clone();
  J.Support = Support;
  return J;
}
