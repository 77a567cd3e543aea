//===- examples/loop_bounds.cpp - Constant loop bounds for parallelism ----===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's introduction (citing Eigenmann & Blume) motivates IPCP
/// with loop bounds: "interprocedural constants are often used as loop
/// bounds", and knowing them lets a parallelizing compiler judge both
/// dependence structure and profitability. This example runs the
/// analyzer over a solver-style program whose loop bounds arrive through
/// procedure parameters, then reports — with and without
/// interprocedural constants — which DO loops have compile-time-known
/// trip counts and what scheduling decision a parallelizer could make.
///
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"
#include "lang/Parser.h"

#include <iostream>

using namespace ipcp;

static const char *Source = R"(program stencil
global nx, ny

proc main()
  nx = 512
  ny = 4
  call relax(nx, 100)
  call edges(ny)
end

proc relax(n, iters)
  integer i, t
  do i = 1, n              ! trip count known only interprocedurally
    call smooth(i, n)
  end do
  do t = 1, iters          ! same
    call smooth(t, n)
  end do
end

proc edges(m)
  integer j, acc
  acc = 0
  do j = 1, m              ! tiny loop: not worth parallelizing
    acc = acc + j
  end do
  print acc
end

proc smooth(row, n)
  integer k, s
  s = row
  do k = 2, n - 1          ! bound is a polynomial of a parameter
    s = s + k
  end do
  print s
end
)";

namespace {

/// Evaluates \p E using literal values plus the analyzer's proven
/// constants for variable uses. Returns nullopt when any leaf is
/// unknown.
std::optional<int64_t> evalWith(const SubstitutionMap &Consts,
                                const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return cast<IntLitExpr>(E)->value();
  case ExprKind::VarRef: {
    auto It = Consts.find(E->id());
    if (It == Consts.end())
      return std::nullopt;
    return It->second;
  }
  case ExprKind::Unary: {
    auto V = evalWith(Consts, cast<UnaryExpr>(E)->operand());
    if (!V)
      return std::nullopt;
    return evalUnaryOp(cast<UnaryExpr>(E)->op(), *V);
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = evalWith(Consts, B->lhs());
    auto R = evalWith(Consts, B->rhs());
    if (!L || !R)
      return std::nullopt;
    int64_t Result;
    if (!evalBinaryOp(B->op(), *L, *R, Result))
      return std::nullopt;
    return Result;
  }
  case ExprKind::ArrayRef:
    return std::nullopt;
  }
  return std::nullopt;
}

struct LoopReport {
  unsigned Known = 0;
  unsigned Unknown = 0;
};

void inspectLoops(const SubstitutionMap &Consts,
                  const std::vector<Stmt *> &Stmts,
                  const std::string &ProcName, bool Print,
                  LoopReport &Report) {
  for (const Stmt *S : Stmts) {
    switch (S->kind()) {
    case StmtKind::DoLoop: {
      const auto *D = cast<DoLoopStmt>(S);
      auto Lo = evalWith(Consts, D->lo());
      auto Hi = evalWith(Consts, D->hi());
      auto Step = D->step() ? evalWith(Consts, D->step())
                            : std::optional<int64_t>(1);
      if (Lo && Hi && Step && *Step != 0) {
        int64_t Trips = *Step > 0 ? (*Hi - *Lo + *Step) / *Step
                                  : (*Lo - *Hi - *Step) / -*Step;
        if (Trips < 0)
          Trips = 0;
        ++Report.Known;
        if (Print) {
          std::cout << "  " << ProcName << ": do " << D->var()->name()
                    << " -> " << Trips << " iterations; ";
          if (Trips >= 64)
            std::cout << "parallelize (wide enough for all workers)\n";
          else if (Trips > 1)
            std::cout << "keep serial (too few iterations)\n";
          else
            std::cout << "eliminate (degenerate loop)\n";
        }
      } else {
        ++Report.Unknown;
        if (Print)
          std::cout << "  " << ProcName << ": do " << D->var()->name()
                    << " -> unknown trip count; must stay serial or "
                       "use a runtime test\n";
      }
      inspectLoops(Consts, D->body(), ProcName, Print, Report);
      break;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      inspectLoops(Consts, I->thenBody(), ProcName, Print, Report);
      inspectLoops(Consts, I->elseBody(), ProcName, Print, Report);
      break;
    }
    case StmtKind::While:
      inspectLoops(Consts, cast<WhileStmt>(S)->body(), ProcName, Print,
                   Report);
      break;
    default:
      break;
    }
  }
}

LoopReport analyze(AnalysisSession &Session, bool Interprocedural,
                   bool Print) {
  PipelineOptions Opts;
  Opts.IntraproceduralOnly = !Interprocedural;
  PipelineResult Result = runPipelineOnSession(Session, Opts);
  if (!Result.Ok) {
    std::cerr << Result.Error;
    exit(1);
  }
  LoopReport Report;
  for (const auto &P : Session.ast().program().Procs)
    inspectLoops(Result.Substitutions, P->Body, P->name(), Print, Report);
  return Report;
}

} // namespace

int main() {
  std::cout << "=== loop bounds: what a parallelizer learns from IPCP "
               "===\n\n";

  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  SymbolTable Symbols = Sema::run(*Ctx, Diags);
  if (Diags.hasErrors()) {
    Diags.print(std::cerr);
    return 1;
  }
  AnalysisSession Session(*Ctx, Symbols);

  std::cout << "without interprocedural constants:\n";
  LoopReport Before = analyze(Session, false, true);

  std::cout << "\nwith interprocedural constants (polynomial + return "
               "JFs):\n";
  LoopReport After = analyze(Session, true, true);

  std::cout << "\nsummary: " << Before.Known << "/"
            << Before.Known + Before.Unknown
            << " loops had known trip counts before IPCP, " << After.Known
            << "/" << After.Known + After.Unknown << " after\n";
  return After.Known > Before.Known ? 0 : 1;
}
