//===- analysis/ValueNumbering.h - SSA value numbering ----------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global (intraprocedural) value numbering over the SSA form, the
/// machinery the paper builds every jump function on top of (§3, §4.1).
///
/// Every SSA value is mapped to a hash-consed expression over:
///   * integer constants,
///   * Param leaves — the *entry* values of the procedure's formals and of
///     global scalars (the paper's extended notion of parameter), and
///   * Opaque leaves — anything unknowable (array loads, READ, loop-
///     carried phis, call effects with no constant return jump function).
///
/// An SSA value whose expression contains no Opaque leaf is a "polynomial
/// function of the entry parameters"; that is exactly the class the
/// polynomial jump function transmits (§3.1.4). Expressions are folded
/// and lightly canonicalized, so a constant-valued expression always
/// surfaces as a Const node — this provides the paper's gcp(y, s)
/// function (§3.1).
///
/// The numbering is pessimistic (one reverse-postorder pass): a phi whose
/// inputs are not all available and equal becomes Opaque. The paper used
/// the optimistic AWZ partitioning; for constants flowing through call
/// chains, straight-line code, and branches the two coincide, and the
/// pessimistic form is dramatically simpler.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_ANALYSIS_VALUENUMBERING_H
#define IPCP_ANALYSIS_VALUENUMBERING_H

#include "ir/Ssa.h"

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ipcp {

class ProcFlowAlias;
class ProcCopyProp;

/// Node kinds of value-numbering expressions. Gamma is the gated-SSA
/// selector (Ballance et al., paper reference [2]): Gamma(c, t, f) is t
/// when c is nonzero and f otherwise. Gammas are only built when the
/// numbering runs in gated mode (paper §4.2's suggested improvement).
/// An array load that copy propagation (analysis/CopyProp.h) resolves to
/// the entry value of a stable symbol numbers to that symbol's Param leaf.
enum class VnKind : uint8_t { Const, Param, Opaque, Unary, Binary, Gamma };

/// One hash-consed expression node. Structural equality coincides with
/// pointer equality for non-Opaque nodes within one VnContext.
struct VnExpr {
  VnKind Kind;
  uint32_t Id = 0;      ///< Creation index; stable canonicalization key.
  int64_t ConstValue = 0;          ///< Const.
  SymbolId Param = InvalidSymbol;  ///< Param (entry value of sym).
  uint32_t OpaqueId = 0;           ///< Opaque (unique per creation).
  UnaryOp UOp = UnaryOp::Neg;      ///< Unary.
  BinaryOp BOp = BinaryOp::Add;    ///< Binary.
  const VnExpr *Lhs = nullptr;     ///< Unary/Binary; Gamma true arm.
  const VnExpr *Rhs = nullptr;     ///< Binary; Gamma false arm.
  const VnExpr *Cond = nullptr;    ///< Gamma predicate.

  bool isConst() const { return Kind == VnKind::Const; }
  bool isParam() const { return Kind == VnKind::Param; }
  bool isOpaque() const { return Kind == VnKind::Opaque; }
};

/// Arena and hash-consing table for VnExprs. One context typically lives
/// for the analysis of one procedure and is then discarded (the paper
/// discards the SSA and value graphs after each procedure, §4.1).
class VnContext {
public:
  VnContext() = default;
  VnContext(const VnContext &) = delete;
  VnContext &operator=(const VnContext &) = delete;

  const VnExpr *getConst(int64_t Value);
  const VnExpr *getParam(SymbolId Sym);
  /// Creates a fresh, never-unified opaque value.
  const VnExpr *makeOpaque();
  /// Builds (folding constants and simple identities) op(Operand).
  const VnExpr *getUnary(UnaryOp Op, const VnExpr *Operand);
  /// Builds (folding and canonicalizing) Lhs op Rhs. Division or modulo
  /// by a constant zero yields Opaque.
  const VnExpr *getBinary(BinaryOp Op, const VnExpr *Lhs, const VnExpr *Rhs);

  /// Builds the gated selector Gamma(Cond, TrueArm, FalseArm), folding a
  /// constant predicate and identical arms.
  const VnExpr *getGamma(const VnExpr *Cond, const VnExpr *TrueArm,
                         const VnExpr *FalseArm);

  size_t numExprs() const { return Exprs.size(); }

private:
  const VnExpr *intern(VnExpr Proto);

  struct Key {
    VnKind Kind;
    int64_t A;
    uint64_t B;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<int>()(static_cast<int>(K.Kind));
      H = H * 31 + std::hash<int64_t>()(K.A);
      H = H * 31 + std::hash<uint64_t>()(K.B);
      return H;
    }
  };

  std::deque<VnExpr> Exprs;
  std::unordered_map<Key, const VnExpr *, KeyHash> Table;
  uint32_t NextOpaque = 0;
};

/// True if \p E mentions no Opaque leaf, i.e. it is an integer expression
/// purely over entry parameters and constants.
bool isParamExpr(const VnExpr *E);

/// Gated relaxation of isParamExpr: Gamma *arms* may be Opaque (the
/// predicate must still be a parameter expression). Such an expression is
/// evaluable whenever the predicates fold to constants selecting known
/// arms — exactly what lets gated jump functions skip dead definitions
/// without dead-code elimination (paper §4.2).
bool isGatedParamExpr(const VnExpr *E);

/// Appends the distinct Param symbols of \p E to \p Support (the paper's
/// support(J) set).
void collectSupport(const VnExpr *E, std::vector<SymbolId> &Support);

/// Renders \p E using symbol names, e.g. "(n + 1) * 2".
std::string vnExprToString(const VnExpr *E, const SymbolTable &Symbols);

/// Read-only view of the expressions flowing into one call site, handed
/// to the kill-value callback so return jump functions can be evaluated
/// with intraprocedural information (paper §3.2).
class CallSiteValues {
public:
  CallSiteValues(const class ValueNumbering &VN, BlockId Block,
                 uint32_t InstrIdx)
      : VN(VN), Block(Block), InstrIdx(InstrIdx) {}

  /// Expression of the \p Idx-th actual argument.
  const VnExpr *actual(uint32_t Idx) const;
  /// Expression of global scalar \p G flowing into the call.
  const VnExpr *global(SymbolId G) const;

private:
  const class ValueNumbering &VN;
  BlockId Block;
  uint32_t InstrIdx;
};

/// Decides the value a call assigns to a symbol it may modify: return a
/// constant when the callee's return jump function evaluates to one under
/// the call-site expressions, or nullopt for Opaque. A null callback
/// means "no return jump functions" (every kill is Opaque).
using KillValueFn = std::function<std::optional<int64_t>(
    const Instr &Call, SymbolId Killed, const CallSiteValues &Values)>;

/// Precision options of one numbering run. At most one of \p Unstable
/// (whole-procedure flow-insensitive masking, analysis/RefAlias.h) and
/// \p Flow (per-point dirty gating, analysis/FlowAlias.h) is set; with
/// \p Optimistic the pessimistic single pass is replaced by Pai-style
/// optimistic iteration to a fixpoint (TOP-initialized, reverse-postorder
/// passes until no expression changes).
struct VnPrecision {
  const std::vector<uint8_t> *Unstable = nullptr;
  const ProcFlowAlias *Flow = nullptr;
  bool Optimistic = false;
  /// Copy-propagation facts (analysis/CopyProp.h): a Load whose cell
  /// resolves becomes getConst/getParam instead of Opaque.
  const ProcCopyProp *Copy = nullptr;
};

/// The value numbering of one procedure.
class ValueNumbering {
public:
  /// Numbers every SSA value of \p Ssa. \p KillFn may be null. With a
  /// non-null \p GatedDT the numbering is *gated*: a two-way join phi
  /// whose controlling branch predicate is a parameter expression
  /// becomes a Gamma instead of an Opaque (paper §4.2). \p Unstable, when
  /// non-null, is a SymbolId-indexed mask of symbols in a modified
  /// by-reference alias pair (analysis/RefAlias.h); every definition of
  /// such a symbol, the entry value included, becomes Opaque because a
  /// store through the aliased name changes it without a visible def.
  ValueNumbering(const SsaForm &Ssa, const SymbolTable &Symbols,
                 VnContext &Ctx, const KillValueFn *KillFn,
                 const DominatorTree *GatedDT = nullptr,
                 const std::vector<uint8_t> *Unstable = nullptr);

  /// As above with the full precision options. With \p Prec.Flow set,
  /// definitions stay precise and only *reads* at dirty points — operand
  /// slots, the global environment flowing into calls, and the exit
  /// environment — resolve to pre-allocated Opaque gate values.
  ValueNumbering(const SsaForm &Ssa, const SymbolTable &Symbols,
                 VnContext &Ctx, const KillValueFn *KillFn,
                 const DominatorTree *GatedDT, const VnPrecision &Prec);

  const SsaForm &ssa() const { return Ssa; }
  const SymbolTable &symbols() const { return Symbols; }
  VnContext &context() const { return Ctx; }

  /// Expression of SSA value \p Id (never null after construction).
  const VnExpr *exprOf(SsaId Id) const { return ExprOf.at(Id); }

  /// Expression of source-operand \p Slot of instruction \p InstrIdx in
  /// block \p B; resolves Const operands to Const expressions and dirty
  /// reads (flow-gated mode) to their gate Opaques.
  const VnExpr *exprOfOperand(BlockId B, uint32_t InstrIdx,
                              uint32_t Slot) const;

  /// Expression of the \p GlobalIdx-th global scalar flowing into the
  /// call at (\p B, \p InstrIdx); gated like exprOfOperand.
  const VnExpr *globalEnvExpr(BlockId B, uint32_t InstrIdx,
                              uint32_t GlobalIdx) const;

  /// Expression of the \p ExitIdx-th exit-environment value (parallel to
  /// SsaForm::exitSymbols()); gated like exprOfOperand. Only valid when
  /// the SSA form hasExitEnv().
  const VnExpr *exitExpr(uint32_t ExitIdx) const;

  /// Optimistic mode only: phis whose merge ever skipped an unavailable
  /// (TOP) input and still converged to a non-Opaque value — merges the
  /// pessimistic single pass gives up on (Pai's iteration wins).
  size_t numOptimisticPhiMerges() const { return NumOptimisticPhiMerges; }

private:
  struct GateKey {
    uint32_t Block;
    uint32_t Instr;
    uint32_t Slot;
    bool operator==(const GateKey &) const = default;
  };
  struct GateKeyHash {
    size_t operator()(const GateKey &K) const {
      size_t H = std::hash<uint64_t>()(
          (static_cast<uint64_t>(K.Block) << 32) | K.Instr);
      return H * 31 + K.Slot;
    }
  };
  using GateMap = std::unordered_map<GateKey, const VnExpr *, GateKeyHash>;

  void buildFlowGates();
  void numberPessimistic(const KillValueFn *KillFn,
                         const DominatorTree *GatedDT,
                         const std::vector<uint8_t> *Unstable);
  void numberOptimistic(const KillValueFn *KillFn,
                        const DominatorTree *GatedDT,
                        const std::vector<uint8_t> *Unstable);
  const VnExpr *operandGate(BlockId B, uint32_t InstrIdx,
                            uint32_t Slot) const;

  const SsaForm &Ssa;
  const SymbolTable &Symbols;
  VnContext &Ctx;
  std::vector<const VnExpr *> ExprOf;

  /// Flow-gated mode only (null otherwise). The gate tables are filled
  /// once before numbering, so concurrent post-construction readers
  /// (exprOfOperand from shared cached numberings) never allocate.
  const ProcFlowAlias *Flow = nullptr;
  /// Copy-propagation mode only (null otherwise, including when the
  /// procedure has no resolved loads).
  const ProcCopyProp *Copy = nullptr;
  GateMap OperandGates;
  GateMap GlobalGates;
  std::vector<const VnExpr *> ExitGates;

  /// Optimistic mode only: stable per-SsaId Opaque identities, so
  /// re-evaluation across passes terminates (TOP -> expr -> pinned
  /// Opaque, at most two changes per value).
  std::vector<const VnExpr *> OpaqueSlots;
  size_t NumOptimisticPhiMerges = 0;
};

} // namespace ipcp

#endif // IPCP_ANALYSIS_VALUENUMBERING_H
