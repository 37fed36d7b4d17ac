/**
 * @file
 * Lightweight C++ lexer for spburst-lint.
 *
 * The static-analysis rules (src/analysis/rules.cc) work on a token
 * stream, not an AST: the properties they police — banned identifiers
 * and lambda capture lists at scheduler call sites — are both visible
 * at token level, which keeps the analyzer dependency-free (no
 * libclang) and fast enough to run as a tier-1 ctest.
 *
 * The lexer understands comments (kept on a separate channel so the
 * suppression parser can see them), preprocessor directives (skipped,
 * including backslash continuations, so macro *definitions* never leak
 * into the rule passes), raw strings, char/number literals with digit
 * separators, and maximal-munch multi-character operators.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spburst::lint
{

/** Lexical class of one token. */
enum class TokKind : std::uint8_t
{
    Ident,   //!< identifier or keyword
    Number,  //!< integer / floating literal (incl. digit separators)
    String,  //!< string literal, quotes included (raw strings too)
    CharLit, //!< character literal, quotes included
    Punct,   //!< operator / punctuator (maximal munch: "<<=", "::", ...)
};

/** One token; @c text views into the owning LexedFile's source. */
struct Token
{
    TokKind kind = TokKind::Punct;
    std::string_view text;
    int line = 0;         //!< 1-based
    int col = 0;          //!< 1-based
};

/** One comment (either // or block form), for suppression parsing. */
struct Comment
{
    int line = 0;        //!< 1-based line the comment starts on
    int endLine = 0;     //!< 1-based line the comment ends on
    bool ownLine = true; //!< nothing but whitespace precedes it
    std::string_view text; //!< body without the comment markers
};

/** A source file plus its token and comment streams. */
struct LexedFile
{
    std::string source; //!< owns the bytes the views point into
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

/** Tokenize @c f.source into @c f.tokens / @c f.comments. */
void lex(LexedFile &f);

} // namespace spburst::lint
