//===- lang/Parser.h - MiniFort parser --------------------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for MiniFort. See the grammar in README.md.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_LANG_PARSER_H
#define IPCP_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace ipcp {

/// The deepest nesting the parser accepts, counting every enclosing
/// statement body (including desugared `elseif` chains), every nested
/// expression context (parentheses, subscripts, call arguments), every
/// unary operator and every step of a binary-operator chain — each one
/// is a level of the tree. The parser and every later pass (sema,
/// lowering, printing, both execution engines) recurse over the tree, so
/// this bound is what keeps a hostile input from overflowing their
/// stacks. Real programs nest a few dozen levels. The bound also leaves
/// room for sanitizer builds, whose parser frames are about ten times
/// larger: under ASan, 800 nested IFs overflow an 8 MB stack.
inline constexpr unsigned MaxNestingDepth = 256;

/// Parses \p Source into an AST. Always returns a context; the caller must
/// check \p Diags for errors before trusting the tree. On a syntax error
/// the parser reports a diagnostic and resynchronizes at the next line;
/// past MaxNestingDepth it reports one diagnostic and stops.
std::unique_ptr<AstContext> parseProgram(std::string_view Source,
                                         DiagnosticEngine &Diags);

} // namespace ipcp

#endif // IPCP_LANG_PARSER_H
