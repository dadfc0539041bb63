/**
 * @file
 * C++ token stream for cmt_analyze.
 *
 * Each file is lexed once: the symbol index and the directive scan
 * read the tokens, and the per-file line rules read scrubSource() of
 * the same tokens, so literal handling is one piece of code. The
 * motivating bug was an older char-level scrubber mis-lexing C++14
 * digit separators (1'000'000) as char-literal starts, which
 * silenced every rule on the rest of the line.
 *
 * The lexer is standard-shaped where it matters for analysis:
 *  - // and block comments (kept as tokens; callers filter),
 *  - string/char literals with escapes, encoding prefixes (u8, u, U,
 *    L) and raw strings R"delim(...)delim",
 *  - pp-numbers, so digit separators belong to the number token and a
 *    separator can never open a char literal,
 *  - preprocessor lines (tokens flagged inDirective, with
 *    line-continuation handling), so #include targets lex as one
 *    header-name token,
 *  - multi-char punctuation (::, ->, ..., shifts, compound assigns).
 *
 * No heap-allocated AST, no libclang: tokens carry byte offsets into
 * the source so higher layers can slice, scrub, or re-emit.
 */

#ifndef CMT_TOOLS_ANALYZE_TOKENIZER_H
#define CMT_TOOLS_ANALYZE_TOKENIZER_H

#include <cstddef>
#include <string>
#include <vector>

namespace cmt::analyze
{

enum class TokKind
{
    kIdentifier,  ///< identifiers and keywords (callers classify)
    kNumber,      ///< pp-number: 42, 1'000'000, 0x1p-2, 1.5e+3
    kString,      ///< "...", u8"...", R"(...)", including the prefix
    kCharLiteral, ///< 'x', L'\n', u8'a', including the prefix
    kHeaderName,  ///< <path> or "path" in an #include line
    kPunct,       ///< operators and punctuation
    kComment,     ///< // or /* */, full text including delimiters
};

/** One lexed token. Offsets index the original source string. */
struct Token
{
    TokKind kind = TokKind::kPunct;
    std::string text;       ///< exact source spelling
    int line = 0;           ///< 1-based line of the first character
    std::size_t begin = 0;  ///< byte offset of the first character
    std::size_t end = 0;    ///< one past the last byte
    bool inDirective = false; ///< inside a preprocessor logical line
};

/**
 * Lex @p source completely. Never fails: unterminated literals and
 * stray bytes lex as best-effort tokens so analysis degrades instead
 * of aborting (analysis inputs are arbitrary working-tree files).
 */
std::vector<Token> tokenize(const std::string &source);

/**
 * Replace comment and string/char-literal contents of @p source with
 * spaces, preserving line structure and (for non-raw strings) the
 * quote characters, so line rules never fire on prose. @p tokens is
 * tokenize(source).
 */
std::string scrubSource(const std::string &source,
                        const std::vector<Token> &tokens);

/** True for C++ keywords (flow/decl words the passes must not treat
 *  as function names: if, while, return, sizeof, ...). */
bool isKeyword(const std::string &word);

} // namespace cmt::analyze

#endif // CMT_TOOLS_ANALYZE_TOKENIZER_H
