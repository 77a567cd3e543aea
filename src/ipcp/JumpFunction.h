//===- ipcp/JumpFunction.h - Forward and return jump functions --*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The jump-function abstraction of Callahan, Cooper, Kennedy & Torczon,
/// and the four forward implementations this paper compares (§3.1):
///
///   literal           constant iff the actual is a literal at the site
///   intraprocedural   constant iff gcp(y, s) proves it constant
///   pass-through      + recognizes an unmodified formal passed onward
///   polynomial        + arbitrary integer expressions over the entry
///                       parameters ("all standard integer operations")
///
/// plus the single polynomial *return* jump function of §3.2. A jump
/// function is stored context-independently (the paper converts the
/// value-numbered expression tree into "a context-independent
/// representation", §4.1): it owns its expression and can be evaluated
/// long after the per-procedure SSA/VN structures are discarded.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_JUMPFUNCTION_H
#define IPCP_IPCP_JUMPFUNCTION_H

#include "analysis/ValueNumbering.h"
#include "ipcp/Lattice.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ipcp {

/// Which forward jump-function implementation to build (§3.1), in
/// increasing order of power: the constants found by each kind are a
/// subset of those found by every later kind.
enum class JumpFunctionKind : uint8_t {
  Literal,
  IntraConst,
  PassThrough,
  Polynomial,
};

/// Returns the paper's name for \p Kind ("literal", "pass-through", ...).
const char *jumpFunctionKindName(JumpFunctionKind Kind);

/// A context-independent integer expression over entry parameters
/// (formals and globals) and constants; the stored form of polynomial
/// jump functions.
class JfExpr {
public:
  /// Gamma is the gated selector (paper §4.2 / reference [2]); Unknown
  /// marks a gamma arm whose value is unknowable — selecting it yields
  /// BOTTOM.
  enum class Node : uint8_t { Const, Param, Unary, Binary, Gamma, Unknown };

  /// Deep-copies \p E, which must satisfy isParamExpr() — or, when
  /// \p AllowGated, isGatedParamExpr() (opaque gamma arms become
  /// Unknown nodes).
  static std::unique_ptr<JfExpr> fromVn(const VnExpr *E,
                                        bool AllowGated = false);

  std::unique_ptr<JfExpr> clone() const;

  Node node() const { return Kind; }
  int64_t constValue() const { return ConstValue; }
  SymbolId param() const { return Param; }

  /// Evaluates under \p Env (maps each support parameter to a lattice
  /// value). Any BOTTOM input or division by zero yields BOTTOM; else any
  /// TOP input yields TOP; else the folded constant.
  LatticeValue eval(
      const std::function<LatticeValue(SymbolId)> &Env) const;

  /// Appends the distinct parameters mentioned to \p Support.
  void collectSupport(std::vector<SymbolId> &Support) const;

  /// Appends an exact structural serialization (value-context memo
  /// grouping key): equal bytes imply equal evaluation under every
  /// environment.
  void appendFingerprint(std::string &Out) const;

  /// Renders with symbol names.
  std::string str(const SymbolTable &Symbols) const;

private:
  Node Kind = Node::Const;
  int64_t ConstValue = 0;
  SymbolId Param = InvalidSymbol;
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  std::unique_ptr<JfExpr> Lhs; ///< Unary/Binary; Gamma true arm.
  std::unique_ptr<JfExpr> Rhs; ///< Binary; Gamma false arm.
  std::unique_ptr<JfExpr> Cond; ///< Gamma predicate.
};

/// One jump function (forward or return). Move-only; the polynomial form
/// owns its expression tree.
class JumpFunction {
public:
  enum class Form : uint8_t {
    Bottom,      ///< Transmits no constant.
    Const,       ///< A known constant, independent of the caller.
    PassThrough, ///< The caller's entry value of one parameter.
    Poly,        ///< An expression over the caller's entry parameters.
  };

  JumpFunction() = default;
  JumpFunction(JumpFunction &&) = default;
  JumpFunction &operator=(JumpFunction &&) = default;

  static JumpFunction bottom() { return JumpFunction(); }
  static JumpFunction constant(int64_t Value);
  static JumpFunction passThrough(SymbolId Sym);
  static JumpFunction polynomial(std::unique_ptr<JfExpr> Expr);

  /// Builds the strongest jump function of kind \p Kind for a value whose
  /// value-numbered expression is \p E and whose source operand is a
  /// literal iff \p IsLiteralOperand (the literal kind is a textual
  /// property, not a semantic one). With \p AllowGated (polynomial kind
  /// only), gated expressions over the entry parameters are also
  /// transmitted (paper §4.2).
  static JumpFunction classify(JumpFunctionKind Kind, const VnExpr *E,
                               bool IsLiteralOperand,
                               bool AllowGated = false);

  Form form() const { return F; }
  bool isBottom() const { return F == Form::Bottom; }
  bool isConst() const { return F == Form::Const; }
  int64_t constValue() const;

  /// The support set (paper §2): the exact entry parameters whose values
  /// this function reads.
  const std::vector<SymbolId> &support() const { return Support; }

  /// Evaluates under \p Env (entry-parameter lattice values of the
  /// calling procedure).
  LatticeValue eval(
      const std::function<LatticeValue(SymbolId)> &Env) const;

  /// Appends an exact structural serialization to \p Out. Two jump
  /// functions that append equal bytes evaluate identically under every
  /// environment (form, constant values, support symbol ids, and
  /// expression structure are all pinned), so the value-context memo
  /// uses the bytes as its extensional grouping key — sharing tables
  /// across call sites, procedures, and configurations whose functions
  /// coincide.
  void appendFingerprint(std::string &Out) const;

  /// Renders for dumps: "7", "passthrough(n)", "poly(n + 1)", "_|_".
  std::string str(const SymbolTable &Symbols) const;

  JumpFunction clone() const;

private:
  Form F = Form::Bottom;
  int64_t ConstValue = 0;
  SymbolId Pass = InvalidSymbol;
  std::unique_ptr<JfExpr> Expr;
  std::vector<SymbolId> Support;
};

} // namespace ipcp

#endif // IPCP_IPCP_JUMPFUNCTION_H
