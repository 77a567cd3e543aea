//===- lang/Sema.h - MiniFort semantic analysis -----------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and semantic checks for MiniFort, plus the program-wide
/// symbol table that every later phase keys its results on.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_LANG_SEMA_H
#define IPCP_LANG_SEMA_H

#include "lang/Ast.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ipcp {

namespace detail {
class SemaImpl;
} // namespace detail

/// Id of a symbol in the program-wide SymbolTable.
using SymbolId = uint32_t;
/// Sentinel for "no symbol".
inline constexpr SymbolId InvalidSymbol = UINT32_MAX;

/// What a symbol names. The interprocedural analysis treats global scalars
/// as implicit parameters of every procedure (paper footnote 1), so
/// "parameter" below means Formal or Global.
enum class SymbolKind : uint8_t {
  Global,      ///< Global integer scalar.
  GlobalArray, ///< Global integer array (opaque to the analysis).
  Formal,      ///< By-reference formal parameter of one procedure.
  Local,       ///< Procedure-local integer scalar.
  LocalArray,  ///< Procedure-local integer array (opaque).
};

/// One named entity. Formals record their 0-based position in the owning
/// procedure's parameter list.
struct Symbol {
  SymbolId Id = InvalidSymbol;
  SymbolKind Kind = SymbolKind::Local;
  std::string Name;
  /// Owning procedure for Formal/Local/LocalArray; UINT32_MAX for globals.
  ProcId Owner = UINT32_MAX;
  /// Position in the formal list (Formal symbols only).
  uint32_t FormalIndex = 0;
  /// Compile-time initializer (Global symbols only).
  std::optional<int64_t> GlobalInit;

  bool isScalar() const {
    return Kind == SymbolKind::Global || Kind == SymbolKind::Formal ||
           Kind == SymbolKind::Local;
  }
  bool isArray() const { return !isScalar(); }
  /// True for the symbols that participate in interprocedural value flow:
  /// formals and global scalars.
  bool isInterproceduralParam() const {
    return Kind == SymbolKind::Global || Kind == SymbolKind::Formal;
  }
};

/// The program-wide symbol table built by Sema. SymbolIds index \c
/// symbols() densely.
class SymbolTable {
public:
  const Symbol &symbol(SymbolId Id) const { return Symbols.at(Id); }
  size_t size() const { return Symbols.size(); }
  const std::vector<Symbol> &symbols() const { return Symbols; }

  /// Ids of all global scalars, in declaration order.
  const std::vector<SymbolId> &globalScalars() const { return GlobalIds; }

  /// Ids of all global arrays, in declaration order.
  const std::vector<SymbolId> &globalArrays() const { return GlobalArrayIds; }

  /// Ids of the formals of \p P, in parameter order.
  const std::vector<SymbolId> &formals(ProcId P) const {
    return PerProc.at(P).Formals;
  }

  /// Ids of the scalar locals of \p P.
  const std::vector<SymbolId> &locals(ProcId P) const {
    return PerProc.at(P).Locals;
  }

  /// The "interprocedural parameters" of \p P: its formals followed by all
  /// global scalars. These are exactly the cells the IPCP solver tracks
  /// per procedure.
  std::vector<SymbolId> interproceduralParams(ProcId P) const;

private:
  friend class detail::SemaImpl;

  SymbolId addSymbol(Symbol S) {
    S.Id = static_cast<SymbolId>(Symbols.size());
    Symbols.push_back(std::move(S));
    return Symbols.back().Id;
  }

  struct ProcSymbols {
    std::vector<SymbolId> Formals;
    std::vector<SymbolId> Locals;
    std::vector<SymbolId> LocalArrays;
  };

  std::vector<Symbol> Symbols;
  std::vector<SymbolId> GlobalIds;
  std::vector<SymbolId> GlobalArrayIds;
  std::vector<ProcSymbols> PerProc;
};

/// Runs name resolution and semantic checks over \p Ctx's program:
/// builds the symbol table, binds every VarRef/ArrayRef/Call to its
/// symbol/procedure, and enforces MiniFort's rules (no shadowing, arity
/// match, scalar/array usage, presence of a zero-argument 'main').
///
/// Returns the symbol table; valid only if \p Diags has no errors.
class Sema {
public:
  static SymbolTable run(AstContext &Ctx, DiagnosticEngine &Diags);
};

} // namespace ipcp

#endif // IPCP_LANG_SEMA_H
