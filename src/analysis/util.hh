/**
 * @file
 * Token-stream helpers for the rules.
 */

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lexer.hh"

namespace spburst::lint
{

inline bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

inline bool
isIdent(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

/** Index of the punctuator matching the opener at @p open ('(' / '[' /
 *  '{'), or toks.size() when unbalanced. */
inline std::size_t
matchClose(const std::vector<Token> &toks, std::size_t open)
{
    const std::string_view o = toks[open].text;
    const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], o))
            ++depth;
        else if (isPunct(toks[i], c) && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Split the argument list of the call whose '(' is at @p open into
 *  top-level comma-separated token ranges [first, last). */
inline std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const std::vector<Token> &toks, std::size_t open,
          std::size_t close)
{
    // '<' / '>' are NOT tracked: at token level a comparison is
    // indistinguishable from a template argument list, and check-macro
    // conditions compare far more often than they instantiate
    // multi-argument templates.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    int pd = 0, bd = 0, cd = 0;
    std::size_t start = open + 1;
    for (std::size_t i = open + 1; i < close; ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Punct)
            continue;
        if (t.text == "(")
            ++pd;
        else if (t.text == ")")
            --pd;
        else if (t.text == "[")
            ++bd;
        else if (t.text == "]")
            --bd;
        else if (t.text == "{")
            ++cd;
        else if (t.text == "}")
            --cd;
        else if (t.text == "," && pd == 0 && bd == 0 && cd == 0) {
            args.emplace_back(start, i);
            start = i + 1;
        }
    }
    if (close > start || args.empty())
        args.emplace_back(start, close);
    return args;
}

} // namespace spburst::lint
