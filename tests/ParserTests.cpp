//===- tests/ParserTests.cpp - lang/Parser unit tests ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"
#include "lang/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// Parses a single-procedure body and returns the printed form of the
/// program (normalizing whitespace and precedence decisions).
std::string roundTrip(const std::string &Source) {
  auto Ctx = parseOk(Source);
  AstPrinter Printer;
  return Printer.programToString(Ctx->program());
}

/// Parses an expression by embedding it in an assignment and prints it
/// back.
std::string exprRoundTrip(const std::string &ExprText) {
  auto Ctx = parseOk("proc main()\n  integer x\n  x = " + ExprText +
                     "\nend\n");
  const auto *Assign =
      cast<AssignStmt>(Ctx->program().Procs[0]->Body.at(0));
  AstPrinter Printer;
  return Printer.exprToString(Assign->value());
}

} // namespace

TEST(Parser, EmptyMain) {
  auto Ctx = parseOk("proc main()\nend\n");
  ASSERT_EQ(Ctx->program().Procs.size(), 1u);
  EXPECT_EQ(Ctx->program().Procs[0]->name(), "main");
  EXPECT_TRUE(Ctx->program().Procs[0]->Body.empty());
}

TEST(Parser, ProgramHeaderAndGlobals) {
  auto Ctx = parseOk("program demo\nglobal a, b = 5, c = -3\narray "
                     "buf(100)\nproc main()\nend\n");
  const Program &P = Ctx->program();
  EXPECT_EQ(P.Name, "demo");
  ASSERT_EQ(P.Globals.size(), 3u);
  EXPECT_EQ(P.Globals[0].Name, "a");
  EXPECT_FALSE(P.Globals[0].Init.has_value());
  EXPECT_EQ(P.Globals[1].Init, 5);
  EXPECT_EQ(P.Globals[2].Init, -3);
  ASSERT_EQ(P.GlobalArrays.size(), 1u);
  EXPECT_EQ(P.GlobalArrays[0].Name, "buf");
  EXPECT_EQ(P.GlobalArrays[0].Size, 100);
}

TEST(Parser, FormalsAndLocals) {
  auto Ctx = parseOk(
      "proc main()\nend\nproc f(x, y, z)\n  integer a, b\n  array "
      "t(8)\n  a = x\nend\n");
  const Proc &F = *Ctx->program().Procs[1];
  EXPECT_EQ(F.formals(), (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(F.Locals, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(F.LocalArrays.size(), 1u);
  EXPECT_EQ(F.LocalArrays[0].Name, "t");
}

TEST(Parser, StatementKinds) {
  auto Ctx = parseOk(R"(proc main()
  integer x, i
  x = 1
  call main()
  if (x > 0) then
    print x
  end if
  do i = 1, 10
    read x
  end do
  while (x < 5)
    x = x + 1
  end while
  return
end
)");
  const auto &Body = Ctx->program().Procs[0]->Body;
  ASSERT_EQ(Body.size(), 6u);
  EXPECT_EQ(Body[0]->kind(), StmtKind::Assign);
  EXPECT_EQ(Body[1]->kind(), StmtKind::Call);
  EXPECT_EQ(Body[2]->kind(), StmtKind::If);
  EXPECT_EQ(Body[3]->kind(), StmtKind::DoLoop);
  EXPECT_EQ(Body[4]->kind(), StmtKind::While);
  EXPECT_EQ(Body[5]->kind(), StmtKind::Return);
}

TEST(Parser, ElseifDesugarsToNestedIf) {
  auto Ctx = parseOk(R"(proc main()
  integer x
  x = 0
  if (x == 1) then
    print 1
  elseif (x == 2) then
    print 2
  else
    print 3
  end if
end
)");
  const auto *Outer =
      cast<IfStmt>(Ctx->program().Procs[0]->Body.at(1));
  ASSERT_EQ(Outer->elseBody().size(), 1u);
  const auto *Nested = dyn_cast<IfStmt>(Outer->elseBody()[0]);
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->thenBody().size(), 1u);
  EXPECT_EQ(Nested->elseBody().size(), 1u);
}

TEST(Parser, DoLoopWithStep) {
  auto Ctx = parseOk(
      "proc main()\n  integer i\n  do i = 10, 1, -2\n  end do\nend\n");
  const auto *Loop = cast<DoLoopStmt>(Ctx->program().Procs[0]->Body[0]);
  ASSERT_NE(Loop->step(), nullptr);
  EXPECT_EQ(Loop->var()->name(), "i");
}

TEST(Parser, DoLoopWithoutStep) {
  auto Ctx = parseOk(
      "proc main()\n  integer i\n  do i = 1, 10\n  end do\nend\n");
  EXPECT_EQ(cast<DoLoopStmt>(Ctx->program().Procs[0]->Body[0])->step(),
            nullptr);
}

TEST(Parser, ArrayAssignmentAndUse) {
  auto Ctx = parseOk("array a(10)\nproc main()\n  integer i\n  i = 1\n  "
                     "a(i) = a(i + 1) + 2\nend\n");
  const auto *Assign =
      cast<AssignStmt>(Ctx->program().Procs[0]->Body.at(1));
  EXPECT_EQ(Assign->target()->kind(), ExprKind::ArrayRef);
}

TEST(Parser, PrecedenceMulOverAdd) {
  EXPECT_EQ(exprRoundTrip("1 + 2 * 3"), "1 + 2 * 3");
  EXPECT_EQ(exprRoundTrip("(1 + 2) * 3"), "(1 + 2) * 3");
}

TEST(Parser, PrecedenceRelationalOverLogical) {
  EXPECT_EQ(exprRoundTrip("1 < 2 and 3 < 4"), "1 < 2 and 3 < 4");
  EXPECT_EQ(exprRoundTrip("1 < 2 or 3 < 4 and 5 < 6"),
            "1 < 2 or 3 < 4 and 5 < 6");
}

TEST(Parser, UnaryMinusBindsTightly) {
  EXPECT_EQ(exprRoundTrip("-1 + 2"), "-1 + 2");
  EXPECT_EQ(exprRoundTrip("-(1 + 2)"), "-(1 + 2)");
}

TEST(Parser, NotParsesBelowComparison) {
  auto Ctx = parseOk("proc main()\n  integer x\n  x = 0\n  if (not x == "
                     "1) then\n  end if\nend\n");
  const auto *If = cast<IfStmt>(Ctx->program().Procs[0]->Body.at(1));
  EXPECT_EQ(If->cond()->kind(), ExprKind::Unary);
}

TEST(Parser, LeftAssociativeSubtraction) {
  // (10 - 3) - 2, not 10 - (3 - 2).
  EXPECT_EQ(exprRoundTrip("10 - 3 - 2"), "10 - 3 - 2");
  EXPECT_EQ(exprRoundTrip("10 - (3 - 2)"), "10 - (3 - 2)");
}

TEST(Parser, CallArguments) {
  auto Ctx = parseOk("proc main()\n  call f(1, 2 + 3, main)\nend\nproc "
                     "f(a, b, c)\nend\n");
  const auto *Call = cast<CallStmt>(Ctx->program().Procs[0]->Body[0]);
  EXPECT_EQ(Call->calleeName(), "f");
  EXPECT_EQ(Call->args().size(), 3u);
}

TEST(Parser, ErrorMissingEnd) {
  DiagnosticEngine Diags;
  parseProgram("proc main()\n  x = 1\n", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, ErrorGarbageStatement) {
  DiagnosticEngine Diags;
  parseProgram("proc main()\n  + 3\nend\n", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("expected a statement"), std::string::npos);
}

TEST(Parser, RecoversAfterBadLine) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(
      "proc main()\n  integer x\n  ???\n  x = 1\nend\n", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  // The assignment after the bad line is still parsed.
  ASSERT_EQ(Ctx->program().Procs.size(), 1u);
  EXPECT_EQ(Ctx->program().Procs[0]->Body.size(), 1u);
}

TEST(Parser, ErrorTopLevelJunk) {
  DiagnosticEngine Diags;
  parseProgram("banana\nproc main()\nend\n", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

namespace {

/// A main whose only statement assigns \p Expr.
std::string assigning(const std::string &Expr) {
  return "proc main()\n  integer x\n  x = " + Expr + "\nend\n";
}

/// \p N nested IFs around one print (elseif chains desugar to the same
/// nesting).
std::string nestedIfs(unsigned N) {
  std::string Source = "proc main()\n  integer x\n  x = 1\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "if (x > 0) then\n";
  Source += "print x\n";
  for (unsigned I = 0; I != N; ++I)
    Source += "end if\n";
  return Source + "end\n";
}

std::string elseifChain(unsigned N) {
  std::string Source = "proc main()\n  integer x\n  x = 1\n"
                       "  if (x == 0) then\n    print 0\n";
  for (unsigned I = 1; I <= N; ++I)
    Source += "  elseif (x == " + std::to_string(I) + ") then\n    print " +
              std::to_string(I) + "\n";
  return Source + "  end if\nend\n";
}

bool rejectedAsTooDeep(const std::string &Source) {
  DiagnosticEngine Diags;
  parseProgram(Source, Diags);
  return Diags.hasErrors() &&
         Diags.str().find("nesting too deep") != std::string::npos;
}

} // namespace

TEST(Parser, NestingBeyondTheLimitIsADiagnostic) {
  // Each shape nests one level per repetition; far past the limit the
  // parse must stop with one diagnostic instead of overflowing a stack
  // (here or in any later recursive pass).
  const unsigned Deep = 20000;
  EXPECT_TRUE(rejectedAsTooDeep(assigning(std::string(Deep, '(') + "1" +
                                          std::string(Deep, ')'))));
  std::string Sum = "1";
  std::string Neg, Not;
  for (unsigned I = 0; I != Deep; ++I) {
    Sum += " + 1";
    Neg += "- ";
    Not += "not ";
  }
  EXPECT_TRUE(rejectedAsTooDeep(assigning(Sum)));
  EXPECT_TRUE(rejectedAsTooDeep(assigning(Neg + "1")));
  EXPECT_TRUE(rejectedAsTooDeep(assigning(Not + "1")));
  EXPECT_TRUE(rejectedAsTooDeep(nestedIfs(Deep)));
  EXPECT_TRUE(rejectedAsTooDeep(elseifChain(Deep)));

  // Exactly one diagnostic, however deep.
  DiagnosticEngine Diags;
  parseProgram(nestedIfs(Deep), Diags);
  EXPECT_EQ(Diags.diagnostics().size(), 1u) << Diags.str();
}

TEST(Parser, NestingWithinTheLimitParses) {
  const unsigned Ok = MaxNestingDepth / 2;
  parseOk(assigning(std::string(Ok, '(') + "1" + std::string(Ok, ')')));
  parseOk(nestedIfs(Ok));
  parseOk(elseifChain(Ok));
  EXPECT_TRUE(rejectedAsTooDeep(nestedIfs(MaxNestingDepth + 1)));
}

TEST(Parser, RoundTripWholeProgram) {
  std::string Source = R"(program p
global n = 3
array buf(16)

proc main()
  integer i
  n = n + 1
  do i = 1, n
    buf(i) = i * 2
  end do
  call f(n, buf(1))
end

proc f(a, b)
  if (a > b) then
    print a
  else
    print b
  end if
end
)";
  std::string Once = roundTrip(Source);
  // Printing is a fixed point: print(parse(print(parse(s)))) == print(parse(s)).
  EXPECT_EQ(roundTrip(Once), Once);
}
