//===- lang/Parser.cpp - MiniFort parser ----------------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include <cassert>
#include <string>

using namespace ipcp;

namespace {

/// Thrown past MaxNestingDepth to abandon the whole parse.
struct NestingTooDeep {
  SourceLoc Loc;
};

/// Recursive-descent parser over a pre-lexed token stream.
class Parser {
public:
  Parser(std::string_view Source, DiagnosticEngine &Diags)
      : Diags(Diags), Ctx(std::make_unique<AstContext>()) {
    Lexer Lex(Source, Diags);
    Tokens = Lex.lexAll();
  }

  std::unique_ptr<AstContext> run() {
    try {
      parseProgram();
    } catch (const NestingTooDeep &E) {
      Diags.error(E.Loc, "nesting too deep: more than " +
                             std::to_string(MaxNestingDepth) +
                             " nested statements and expressions");
    }
    return std::move(Ctx);
  }

private:
  /// Restores the nesting depth on scope exit, however many levels the
  /// scope entered.
  class DepthScope {
  public:
    explicit DepthScope(Parser &P) : P(P), Saved(P.Depth) {}
    ~DepthScope() { P.Depth = Saved; }
    DepthScope(const DepthScope &) = delete;
    DepthScope &operator=(const DepthScope &) = delete;

  private:
    Parser &P;
    unsigned Saved;
  };

  /// Enters one more level of nesting (see MaxNestingDepth).
  void nest() {
    if (++Depth > MaxNestingDepth)
      throw NestingTooDeep{peek().Loc};
  }

  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  const Token &advance() {
    const Token &T = Tokens[Pos];
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }

  bool check(TokenKind K) const { return peek().is(K); }

  bool match(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }

  /// Consumes a token of kind \p K or reports an error. Returns true on
  /// success.
  bool expect(TokenKind K, const char *Context) {
    if (match(K))
      return true;
    Diags.error(peek().Loc, std::string("expected ") + tokenKindName(K) +
                                " " + Context + ", found " +
                                tokenKindName(peek().Kind));
    return false;
  }

  /// Skips ahead to just past the next newline (error recovery).
  void syncToNextLine() {
    while (!check(TokenKind::Eof) && !match(TokenKind::Newline))
      advance();
  }

  bool expectNewline(const char *Context) {
    if (match(TokenKind::Newline) || check(TokenKind::Eof))
      return true;
    Diags.error(peek().Loc,
                std::string("expected end of line ") + Context);
    syncToNextLine();
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Top level
  //===--------------------------------------------------------------------===//

  void parseProgram() {
    Program &Prog = Ctx->program();
    if (match(TokenKind::KwProgram)) {
      if (check(TokenKind::Identifier))
        Prog.Name = advance().Text;
      else
        Diags.error(peek().Loc, "expected program name");
      expectNewline("after program header");
    }

    while (!check(TokenKind::Eof)) {
      if (check(TokenKind::KwGlobal)) {
        parseGlobalDecl();
      } else if (check(TokenKind::KwArray)) {
        parseGlobalArrayDecl();
      } else if (check(TokenKind::KwProc)) {
        parseProc();
      } else {
        Diags.error(peek().Loc,
                    std::string("expected 'global', 'array', or 'proc' at "
                                "top level, found ") +
                        tokenKindName(peek().Kind));
        syncToNextLine();
      }
    }
  }

  void parseGlobalDecl() {
    advance(); // 'global'
    do {
      GlobalDecl Decl;
      Decl.Loc = peek().Loc;
      if (!check(TokenKind::Identifier)) {
        Diags.error(peek().Loc, "expected global variable name");
        syncToNextLine();
        return;
      }
      Decl.Name = advance().Text;
      if (match(TokenKind::Assign)) {
        bool Negate = match(TokenKind::Minus);
        if (!check(TokenKind::IntLiteral)) {
          Diags.error(peek().Loc,
                      "global initializer must be an integer literal");
          syncToNextLine();
          return;
        }
        int64_t Value = advance().IntValue;
        Decl.Init = Negate ? -Value : Value;
      }
      Ctx->program().Globals.push_back(std::move(Decl));
    } while (match(TokenKind::Comma));
    expectNewline("after global declaration");
  }

  /// Parses "array name(size)"; used for both global and local arrays.
  bool parseArrayDeclTail(ArrayDecl &Decl) {
    Decl.Loc = peek().Loc;
    if (!check(TokenKind::Identifier)) {
      Diags.error(peek().Loc, "expected array name");
      return false;
    }
    Decl.Name = advance().Text;
    if (!expect(TokenKind::LParen, "after array name"))
      return false;
    if (!check(TokenKind::IntLiteral)) {
      Diags.error(peek().Loc, "array size must be an integer literal");
      return false;
    }
    Decl.Size = advance().IntValue;
    return expect(TokenKind::RParen, "after array size");
  }

  void parseGlobalArrayDecl() {
    advance(); // 'array'
    ArrayDecl Decl;
    if (parseArrayDeclTail(Decl))
      Ctx->program().GlobalArrays.push_back(std::move(Decl));
    expectNewline("after array declaration");
  }

  void parseProc() {
    SourceLoc Loc = advance().Loc; // 'proc'
    std::string Name;
    if (check(TokenKind::Identifier)) {
      Name = advance().Text;
    } else {
      Diags.error(peek().Loc, "expected procedure name");
      syncToNextLine();
      return;
    }

    std::vector<std::string> Formals;
    if (expect(TokenKind::LParen, "after procedure name")) {
      if (!check(TokenKind::RParen)) {
        do {
          if (!check(TokenKind::Identifier)) {
            Diags.error(peek().Loc, "expected formal parameter name");
            break;
          }
          Formals.emplace_back(advance().Text);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after formal parameters");
    }
    expectNewline("after procedure header");

    auto P = std::make_unique<Proc>(Loc, std::move(Name), std::move(Formals));

    // Local declarations precede the statements.
    for (;;) {
      if (check(TokenKind::KwInteger)) {
        advance();
        do {
          if (!check(TokenKind::Identifier)) {
            Diags.error(peek().Loc, "expected local variable name");
            break;
          }
          P->Locals.emplace_back(advance().Text);
        } while (match(TokenKind::Comma));
        expectNewline("after local declaration");
        continue;
      }
      if (check(TokenKind::KwArray)) {
        advance();
        ArrayDecl Decl;
        if (parseArrayDeclTail(Decl))
          P->LocalArrays.push_back(std::move(Decl));
        expectNewline("after array declaration");
        continue;
      }
      break;
    }

    P->Body = parseStmtList();

    if (!match(TokenKind::KwEnd))
      Diags.error(peek().Loc, "expected 'end' to close procedure '" +
                                  P->name() + "'");
    expectNewline("after 'end'");
    Ctx->program().Procs.push_back(std::move(P));
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Parses statements until 'end', 'else', 'elseif', or EOF.
  std::vector<Stmt *> parseStmtList() {
    std::vector<Stmt *> Stmts;
    for (;;) {
      if (check(TokenKind::Eof) || check(TokenKind::KwEnd) ||
          check(TokenKind::KwElse) || check(TokenKind::KwElseif))
        return Stmts;
      if (Stmt *S = parseStmt())
        Stmts.push_back(S);
    }
  }

  Stmt *parseStmt() {
    switch (peek().Kind) {
    case TokenKind::Identifier:
      return parseAssign();
    case TokenKind::KwCall:
      return parseCall();
    case TokenKind::KwIf:
      return parseIf();
    case TokenKind::KwDo:
      return parseDo();
    case TokenKind::KwWhile:
      return parseWhile();
    case TokenKind::KwPrint:
      return parsePrint();
    case TokenKind::KwRead:
      return parseRead();
    case TokenKind::KwReturn: {
      SourceLoc Loc = advance().Loc;
      expectNewline("after 'return'");
      return Ctx->createStmt<ReturnStmt>(Loc);
    }
    default:
      Diags.error(peek().Loc, std::string("expected a statement, found ") +
                                  tokenKindName(peek().Kind));
      syncToNextLine();
      return nullptr;
    }
  }

  Stmt *parseAssign() {
    SourceLoc Loc = peek().Loc;
    std::string Name(advance().Text);
    Expr *Target = nullptr;
    if (match(TokenKind::LParen)) {
      Expr *Index = parseExpr();
      expect(TokenKind::RParen, "after array subscript");
      Target = Ctx->createExpr<ArrayRefExpr>(Loc, Name, Index);
    } else {
      Target = Ctx->createExpr<VarRefExpr>(Loc, Name);
    }
    if (!expect(TokenKind::Assign, "in assignment")) {
      syncToNextLine();
      return nullptr;
    }
    Expr *Value = parseExpr();
    expectNewline("after assignment");
    return Ctx->createStmt<AssignStmt>(Loc, Target, Value);
  }

  Stmt *parseCall() {
    SourceLoc Loc = advance().Loc; // 'call'
    if (!check(TokenKind::Identifier)) {
      Diags.error(peek().Loc, "expected procedure name after 'call'");
      syncToNextLine();
      return nullptr;
    }
    std::string Callee(advance().Text);
    std::vector<Expr *> Args;
    if (expect(TokenKind::LParen, "after callee name")) {
      if (!check(TokenKind::RParen)) {
        do
          Args.push_back(parseExpr());
        while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
    }
    expectNewline("after call");
    return Ctx->createStmt<CallStmt>(Loc, std::move(Callee),
                                     std::move(Args));
  }

  Stmt *parseIf() {
    DepthScope Scope(*this);
    nest();
    SourceLoc Loc = advance().Loc; // 'if' or 'elseif'
    expect(TokenKind::LParen, "after 'if'");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "after if condition");
    expect(TokenKind::KwThen, "after if condition");
    expectNewline("after 'then'");

    std::vector<Stmt *> Then = parseStmtList();
    std::vector<Stmt *> Else;

    if (check(TokenKind::KwElseif)) {
      // Desugar: elseif becomes a nested if in the else block, sharing the
      // same 'end if'.
      if (Stmt *Nested = parseIf())
        Else.push_back(Nested);
      return Ctx->createStmt<IfStmt>(Loc, Cond, std::move(Then),
                                     std::move(Else));
    }

    if (match(TokenKind::KwElse)) {
      expectNewline("after 'else'");
      Else = parseStmtList();
    }
    expect(TokenKind::KwEnd, "to close 'if'");
    expect(TokenKind::KwIf, "after 'end'");
    expectNewline("after 'end if'");
    return Ctx->createStmt<IfStmt>(Loc, Cond, std::move(Then),
                                   std::move(Else));
  }

  Stmt *parseDo() {
    DepthScope Scope(*this);
    nest();
    SourceLoc Loc = advance().Loc; // 'do'
    if (!check(TokenKind::Identifier)) {
      Diags.error(peek().Loc, "expected loop variable after 'do'");
      syncToNextLine();
      return nullptr;
    }
    SourceLoc VarLoc = peek().Loc;
    auto *Var =
        Ctx->createExpr<VarRefExpr>(VarLoc, std::string(advance().Text));
    expect(TokenKind::Assign, "after loop variable");
    Expr *Lo = parseExpr();
    expect(TokenKind::Comma, "after loop lower bound");
    Expr *Hi = parseExpr();
    Expr *Step = nullptr;
    if (match(TokenKind::Comma))
      Step = parseExpr();
    expectNewline("after do header");

    std::vector<Stmt *> Body = parseStmtList();
    expect(TokenKind::KwEnd, "to close 'do'");
    expect(TokenKind::KwDo, "after 'end'");
    expectNewline("after 'end do'");
    return Ctx->createStmt<DoLoopStmt>(Loc, Var, Lo, Hi, Step,
                                       std::move(Body));
  }

  Stmt *parseWhile() {
    DepthScope Scope(*this);
    nest();
    SourceLoc Loc = advance().Loc; // 'while'
    expect(TokenKind::LParen, "after 'while'");
    Expr *Cond = parseExpr();
    expect(TokenKind::RParen, "after while condition");
    expectNewline("after while header");

    std::vector<Stmt *> Body = parseStmtList();
    expect(TokenKind::KwEnd, "to close 'while'");
    expect(TokenKind::KwWhile, "after 'end'");
    expectNewline("after 'end while'");
    return Ctx->createStmt<WhileStmt>(Loc, Cond, std::move(Body));
  }

  Stmt *parsePrint() {
    SourceLoc Loc = advance().Loc; // 'print'
    Expr *Value = parseExpr();
    expectNewline("after print");
    return Ctx->createStmt<PrintStmt>(Loc, Value);
  }

  Stmt *parseRead() {
    SourceLoc Loc = advance().Loc; // 'read'
    if (!check(TokenKind::Identifier)) {
      Diags.error(peek().Loc, "expected variable name after 'read'");
      syncToNextLine();
      return nullptr;
    }
    SourceLoc VarLoc = peek().Loc;
    auto *Var =
        Ctx->createExpr<VarRefExpr>(VarLoc, std::string(advance().Text));
    expectNewline("after read");
    return Ctx->createStmt<ReadStmt>(Loc, Var);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Expr *parseExpr() {
    DepthScope Scope(*this);
    nest();
    return parseOr();
  }

  // The binary-operator loops build left-deep trees: each step nests the
  // chain so far one level deeper.

  Expr *parseOr() {
    DepthScope Scope(*this);
    Expr *Lhs = parseAnd();
    while (check(TokenKind::KwOr)) {
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Rhs = parseAnd();
      Lhs = Ctx->createExpr<BinaryExpr>(Loc, BinaryOp::LogicalOr, Lhs, Rhs);
    }
    return Lhs;
  }

  Expr *parseAnd() {
    DepthScope Scope(*this);
    Expr *Lhs = parseNot();
    while (check(TokenKind::KwAnd)) {
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Rhs = parseNot();
      Lhs = Ctx->createExpr<BinaryExpr>(Loc, BinaryOp::LogicalAnd, Lhs, Rhs);
    }
    return Lhs;
  }

  Expr *parseNot() {
    DepthScope Scope(*this);
    if (check(TokenKind::KwNot)) {
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Operand = parseNot();
      return Ctx->createExpr<UnaryExpr>(Loc, UnaryOp::LogicalNot, Operand);
    }
    return parseRelational();
  }

  static std::optional<BinaryOp> relationalOp(TokenKind K) {
    switch (K) {
    case TokenKind::EqEq:
      return BinaryOp::CmpEq;
    case TokenKind::NotEq:
      return BinaryOp::CmpNe;
    case TokenKind::Less:
      return BinaryOp::CmpLt;
    case TokenKind::LessEq:
      return BinaryOp::CmpLe;
    case TokenKind::Greater:
      return BinaryOp::CmpGt;
    case TokenKind::GreaterEq:
      return BinaryOp::CmpGe;
    default:
      return std::nullopt;
    }
  }

  Expr *parseRelational() {
    Expr *Lhs = parseAdditive();
    if (auto Op = relationalOp(peek().Kind)) {
      SourceLoc Loc = advance().Loc;
      Expr *Rhs = parseAdditive();
      return Ctx->createExpr<BinaryExpr>(Loc, *Op, Lhs, Rhs);
    }
    return Lhs;
  }

  Expr *parseAdditive() {
    DepthScope Scope(*this);
    Expr *Lhs = parseMultiplicative();
    for (;;) {
      BinaryOp Op;
      if (check(TokenKind::Plus))
        Op = BinaryOp::Add;
      else if (check(TokenKind::Minus))
        Op = BinaryOp::Sub;
      else
        return Lhs;
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Rhs = parseMultiplicative();
      Lhs = Ctx->createExpr<BinaryExpr>(Loc, Op, Lhs, Rhs);
    }
  }

  Expr *parseMultiplicative() {
    DepthScope Scope(*this);
    Expr *Lhs = parseUnary();
    for (;;) {
      BinaryOp Op;
      if (check(TokenKind::Star))
        Op = BinaryOp::Mul;
      else if (check(TokenKind::Slash))
        Op = BinaryOp::Div;
      else if (check(TokenKind::Percent))
        Op = BinaryOp::Mod;
      else
        return Lhs;
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Rhs = parseUnary();
      Lhs = Ctx->createExpr<BinaryExpr>(Loc, Op, Lhs, Rhs);
    }
  }

  Expr *parseUnary() {
    DepthScope Scope(*this);
    if (check(TokenKind::Minus)) {
      nest();
      SourceLoc Loc = advance().Loc;
      Expr *Operand = parseUnary();
      return Ctx->createExpr<UnaryExpr>(Loc, UnaryOp::Neg, Operand);
    }
    return parsePrimary();
  }

  Expr *parsePrimary() {
    SourceLoc Loc = peek().Loc;
    if (check(TokenKind::IntLiteral)) {
      int64_t Value = advance().IntValue;
      return Ctx->createExpr<IntLitExpr>(Loc, Value);
    }
    if (check(TokenKind::Identifier)) {
      std::string Name(advance().Text);
      if (match(TokenKind::LParen)) {
        Expr *Index = parseExpr();
        expect(TokenKind::RParen, "after array subscript");
        return Ctx->createExpr<ArrayRefExpr>(Loc, std::move(Name), Index);
      }
      return Ctx->createExpr<VarRefExpr>(Loc, std::move(Name));
    }
    if (match(TokenKind::LParen)) {
      Expr *Inner = parseExpr();
      expect(TokenKind::RParen, "after parenthesized expression");
      return Inner;
    }
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokenKindName(peek().Kind));
    // Recover with a dummy literal so callers always get a node.
    if (!check(TokenKind::Newline) && !check(TokenKind::Eof))
      advance();
    return Ctx->createExpr<IntLitExpr>(Loc, int64_t(0));
  }

  DiagnosticEngine &Diags;
  std::unique_ptr<AstContext> Ctx;
  std::vector<Token> Tokens;
  size_t Pos = 0;
  /// Current nesting (see MaxNestingDepth).
  unsigned Depth = 0;
};

} // namespace

std::unique_ptr<AstContext> ipcp::parseProgram(std::string_view Source,
                                               DiagnosticEngine &Diags) {
  Parser P(Source, Diags);
  return P.run();
}
