//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers every test file shares: parse-and-check, and a FullAnalysis
/// bundle that runs the front end through MOD so IR-level tests can grab
/// any intermediate structure.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_TESTS_TESTHELPERS_H
#define IPCP_TESTS_TESTHELPERS_H

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "ir/CfgBuilder.h"
#include "ir/Dominators.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace ipcp {
namespace test {

/// Parses \p Source and fails the test on any diagnostic.
inline std::unique_ptr<AstContext> parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Ctx;
}

/// Everything up to MOD/REF, bundled. Keeps the pieces alive together so
/// tests can poke at any layer.
struct FullAnalysis {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  Module M;
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<ModRefInfo> MRI;

  const Program &program() const { return Ctx->program(); }

  ProcId proc(const std::string &Name) const {
    auto P = Ctx->program().findProc(Name);
    EXPECT_TRUE(P.has_value()) << "no procedure " << Name;
    return *P;
  }

  const Function &function(const std::string &Name) const {
    return M.function(proc(Name));
  }

  SymbolId symbol(const std::string &Name) const {
    for (const Symbol &S : Symbols.symbols())
      if (S.Name == Name)
        return S.Id;
    ADD_FAILURE() << "no symbol " << Name;
    return InvalidSymbol;
  }

  /// Symbol visible in \p Proc (resolves formals/locals owned by it,
  /// else globals).
  SymbolId symbolIn(const std::string &ProcName,
                    const std::string &Name) const {
    ProcId P = proc(ProcName);
    for (const Symbol &S : Symbols.symbols())
      if (S.Name == Name &&
          (S.Owner == P || S.Owner == UINT32_MAX))
        return S.Id;
    ADD_FAILURE() << "no symbol " << Name << " in " << ProcName;
    return InvalidSymbol;
  }
};

/// Runs parse + sema + lowering + call graph + MOD. Fails the test on
/// any front-end error.
inline FullAnalysis analyze(const std::string &Source) {
  FullAnalysis A;
  DiagnosticEngine Diags;
  A.Ctx = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  A.Symbols = Sema::run(*A.Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  A.M = buildModule(A.Ctx->program(), A.Symbols);
  auto Entry = A.Ctx->program().entryProc();
  EXPECT_TRUE(Entry.has_value());
  A.CG = std::make_unique<CallGraph>(A.M, *Entry);
  A.MRI = std::make_unique<ModRefInfo>(A.M, A.Symbols, *A.CG);
  return A;
}

/// Needs two complete-propagation DCE rounds: folding main's dead call
/// site is what makes p's formal constant, exposing p's dead branch on
/// the next round.
inline const char *const TwoRoundSource = R"(proc q(m)
  print m
end
proc p(k)
  if (k != 5) then
    call q(1)
  end if
  call q(3)
  print k
end
proc main()
  if (0 == 1) then
    call p(99)
  end if
  call p(5)
end
)";

/// Collects the diagnostics of a parse+sema run (for error tests).
inline std::string diagnose(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  if (!Diags.hasErrors())
    Sema::run(*Ctx, Diags);
  return Diags.str();
}

} // namespace test
} // namespace ipcp

#endif // IPCP_TESTS_TESTHELPERS_H
