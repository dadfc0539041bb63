#include "analyze/tokenizer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>

namespace cmt::analyze
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c));
}

/** Valid encoding prefix for a string or char literal. */
bool
isLiteralPrefix(const std::string &word)
{
    return word == "u8" || word == "u" || word == "U" || word == "L";
}

/** Multi-char punctuation, longest first so maximal munch wins. */
const std::array<const char *, 36> &
punctuators()
{
    static const std::array<const char *, 36> ops = {
        "<<=", ">>=", "->*", "...", "<=>",          // 3 chars
        "::", "->", "++", "--", "<<", ">>", "<=",   // 2 chars
        ">=", "==", "!=", "&&", "||", "+=", "-=",
        "*=", "/=", "%=", "&=", "|=", "^=", ".*",
        "##",
        "{", "}", "(", ")", "[", "]", ";", ",", "#", // 1 char (rest
                                                     // lex singly)
    };
    return ops;
}

class Lexer
{
  public:
    explicit Lexer(const std::string &src) : src_(src) {}

    std::vector<Token> run()
    {
        while (pos_ < src_.size())
            lexOne();
        return std::move(out_);
    }

  private:
    char cur() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
    char peek(std::size_t n = 1) const
    {
        return pos_ + n < src_.size() ? src_[pos_ + n] : '\0';
    }

    void advance()
    {
        if (src_[pos_] == '\n') {
            ++line_;
            atLineStart_ = true;
            // A directive ends at an unescaped newline.
            inDirective_ = false;
        }
        ++pos_;
    }

    void emit(TokKind kind, std::size_t begin, int line)
    {
        Token t;
        t.kind = kind;
        t.begin = begin;
        t.end = pos_;
        t.line = line;
        t.text = src_.substr(begin, pos_ - begin);
        t.inDirective = inDirective_;
        out_.push_back(std::move(t));
    }

    void lexOne()
    {
        const char c = cur();

        // Line splices: a backslash-newline vanishes everywhere (the
        // preprocessor removes it before tokenization), keeping
        // directives alive across physical lines.
        if (c == '\\' && (peek() == '\n' ||
                          (peek() == '\r' && peek(2) == '\n'))) {
            const bool directive = inDirective_;
            advance(); // backslash
            if (cur() == '\r')
                advance();
            advance(); // newline (clears inDirective_)
            inDirective_ = directive;
            return;
        }

        if (std::isspace(static_cast<unsigned char>(c))) {
            advance();
            return;
        }

        const std::size_t begin = pos_;
        const int line = line_;

        if (c == '/' && peek() == '/') {
            while (pos_ < src_.size() && cur() != '\n')
                advance();
            emit(TokKind::kComment, begin, line);
            atLineStart_ = false;
            return;
        }
        if (c == '/' && peek() == '*') {
            advance();
            advance();
            while (pos_ < src_.size() &&
                   !(cur() == '*' && peek() == '/'))
                advance();
            if (pos_ < src_.size()) {
                advance();
                advance();
            }
            emit(TokKind::kComment, begin, line);
            // A block comment is whitespace; it does not consume the
            // line-start property (``  /* x */ #include`` is a
            // directive).
            return;
        }

        if (c == '#' && atLineStart_ && !inDirective_) {
            inDirective_ = true;
            advance();
            if (cur() == '#')
                advance();
            atLineStart_ = false;
            emit(TokKind::kPunct, begin, line);
            // An #include / #include_next target is a header-name,
            // not an expression: <stdio.h> must not lex as
            // less-than, identifier, dot, greater-than.
            lexPossibleHeaderName();
            return;
        }

        if (isIdentStart(c)) {
            lexIdentifierOrPrefixedLiteral();
            atLineStart_ = false;
            return;
        }

        if (isDigit(c) || (c == '.' && isDigit(peek()))) {
            lexPpNumber();
            atLineStart_ = false;
            return;
        }

        if (c == '"') {
            lexString(begin, line);
            atLineStart_ = false;
            return;
        }
        if (c == '\'') {
            lexCharLiteral(begin, line);
            atLineStart_ = false;
            return;
        }

        lexPunct(begin, line);
        atLineStart_ = false;
    }

    /** After a '#': if the directive is an include, lex its target as
     *  one kHeaderName token. */
    void lexPossibleHeaderName()
    {
        std::size_t p = pos_;
        while (p < src_.size() &&
               (src_[p] == ' ' || src_[p] == '\t'))
            ++p;
        std::size_t kw = p;
        while (kw < src_.size() && isIdentChar(src_[kw]))
            ++kw;
        const std::string name = src_.substr(p, kw - p);
        if (name != "include" && name != "include_next")
            return;
        // Emit the directive keyword.
        while (pos_ < kw)
            advance();
        emit(TokKind::kIdentifier, p, line_);
        while (cur() == ' ' || cur() == '\t')
            advance();
        const char open = cur();
        if (open != '<' && open != '"')
            return; // computed include (macro); lex normally
        const char close = open == '<' ? '>' : '"';
        const std::size_t begin = pos_;
        const int line = line_;
        advance();
        while (pos_ < src_.size() && cur() != close && cur() != '\n')
            advance();
        if (cur() == close)
            advance();
        emit(TokKind::kHeaderName, begin, line);
    }

    void lexIdentifierOrPrefixedLiteral()
    {
        const std::size_t begin = pos_;
        const int line = line_;
        while (isIdentChar(cur()))
            advance();
        std::string word = src_.substr(begin, pos_ - begin);

        // Encoding prefixes glue onto the following literal: L'x' is
        // one char literal, not an identifier and a separator; u8R"("
        // opens a raw string.
        const bool rawCandidate =
            (word == "R" || ((word.size() >= 2 && word.back() == 'R') &&
                             isLiteralPrefix(
                                 word.substr(0, word.size() - 1))));
        if (cur() == '"' && (isLiteralPrefix(word) || rawCandidate)) {
            if (word.back() == 'R')
                lexRawStringTail(begin, line);
            else
                lexString(begin, line, /*resume=*/true);
            return;
        }
        if (cur() == '\'' && isLiteralPrefix(word)) {
            lexCharLiteral(begin, line, /*resume=*/true);
            return;
        }
        emit(TokKind::kIdentifier, begin, line);
    }

    /**
     * pp-number: digits, identifier chars, '.', exponent signs, and
     * digit separators. A separator belongs to the number only when
     * followed by an alphanumeric character, exactly as the grammar
     * says — so 1'000'000 is one token and the quote in
     * `f(1, 'x')` still opens a char literal.
     */
    void lexPpNumber()
    {
        const std::size_t begin = pos_;
        const int line = line_;
        advance(); // first digit or '.'
        while (pos_ < src_.size()) {
            const char c = cur();
            if (isIdentChar(c) || c == '.') {
                const char prev = src_[pos_ - 1];
                advance();
                // e+3 / p-2 exponents continue the number.
                if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') &&
                    (cur() == '+' || cur() == '-') &&
                    (prev == '.' || isIdentChar(prev)))
                    advance();
                continue;
            }
            if (c == '\'' && std::isalnum(static_cast<unsigned char>(
                                 peek()))) {
                advance(); // separator
                continue;
            }
            break;
        }
        emit(TokKind::kNumber, begin, line);
    }

    /** @p resume: begin/line already cover an encoding prefix. */
    void lexString(std::size_t begin, int line, bool resume = false)
    {
        if (!resume) {
            begin = pos_;
            line = line_;
        }
        advance(); // opening quote
        while (pos_ < src_.size() && cur() != '"' && cur() != '\n') {
            if (cur() == '\\' && pos_ + 1 < src_.size())
                advance();
            advance();
        }
        if (cur() == '"')
            advance();
        emit(TokKind::kString, begin, line);
    }

    /** Raw string: pos_ sits on the '"' after an R prefix. */
    void lexRawStringTail(std::size_t begin, int line)
    {
        advance(); // opening quote
        std::string delim;
        while (pos_ < src_.size() && cur() != '(' && cur() != '\n' &&
               delim.size() < 16)
            delim += src_[pos_], advance();
        if (cur() != '(') { // malformed; treat as plain string tail
            emit(TokKind::kString, begin, line);
            return;
        }
        advance();
        const std::string terminator = ")" + delim + "\"";
        while (pos_ < src_.size() &&
               src_.compare(pos_, terminator.size(), terminator) != 0)
            advance();
        for (std::size_t i = 0;
             i < terminator.size() && pos_ < src_.size(); ++i)
            advance();
        emit(TokKind::kString, begin, line);
    }

    void lexCharLiteral(std::size_t begin, int line,
                        bool resume = false)
    {
        if (!resume) {
            begin = pos_;
            line = line_;
        }
        advance(); // opening quote
        while (pos_ < src_.size() && cur() != '\'' && cur() != '\n') {
            if (cur() == '\\' && pos_ + 1 < src_.size())
                advance();
            advance();
        }
        if (cur() == '\'')
            advance();
        emit(TokKind::kCharLiteral, begin, line);
    }

    void lexPunct(std::size_t begin, int line)
    {
        for (const char *op : punctuators()) {
            const std::size_t n = std::char_traits<char>::length(op);
            if (src_.compare(pos_, n, op) == 0) {
                for (std::size_t i = 0; i < n; ++i)
                    advance();
                emit(TokKind::kPunct, begin, line);
                return;
            }
        }
        advance();
        emit(TokKind::kPunct, begin, line);
    }

    const std::string &src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    bool atLineStart_ = true;
    bool inDirective_ = false;
    std::vector<Token> out_;
};

} // namespace

std::vector<Token>
tokenize(const std::string &source)
{
    return Lexer(source).run();
}

std::string
scrubSource(const std::string &source,
            const std::vector<Token> &tokens)
{
    std::string out = source;
    const auto blank = [&out](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to && i < out.size(); ++i) {
            if (out[i] != '\n')
                out[i] = ' ';
        }
    };
    for (const Token &t : tokens) {
        switch (t.kind) {
        case TokKind::kComment:
            blank(t.begin, t.end);
            break;
        case TokKind::kString:
        case TokKind::kCharLiteral: {
            // Keep the delimiting quotes (and blank everything else,
            // prefix included) so line shape survives for regexes.
            const std::size_t open = out.find(
                t.kind == TokKind::kString ? '"' : '\'', t.begin);
            if (open == std::string::npos || open >= t.end)
                break;
            const bool raw =
                t.kind == TokKind::kString && open > t.begin &&
                out[open - 1] == 'R';
            if (raw) {
                blank(t.begin, t.end); // R"(...)" vanishes entirely
            } else {
                blank(t.begin, open);
                blank(open + 1, t.end > t.begin + 1 ? t.end - 1
                                                    : t.end);
            }
            break;
        }
        default:
            break;
        }
    }
    return out;
}

bool
isKeyword(const std::string &word)
{
    static const std::set<std::string> keywords = {
        "alignas",   "alignof",   "asm",        "auto",
        "bool",      "break",     "case",       "catch",
        "char",      "class",     "co_await",   "co_return",
        "co_yield",  "concept",   "const",      "consteval",
        "constexpr", "constinit", "const_cast", "continue",
        "decltype",  "default",   "delete",     "do",
        "double",    "dynamic_cast", "else",    "enum",
        "explicit",  "export",    "extern",     "false",
        "float",     "for",       "friend",     "goto",
        "if",        "inline",    "int",        "long",
        "mutable",   "namespace", "new",        "noexcept",
        "nullptr",   "operator",  "private",    "protected",
        "public",    "register",  "reinterpret_cast",
        "requires",  "return",    "short",      "signed",
        "sizeof",    "static",    "static_assert",
        "static_cast", "struct",  "switch",     "template",
        "this",      "thread_local", "throw",   "true",
        "try",       "typedef",   "typeid",     "typename",
        "union",     "unsigned",  "using",      "virtual",
        "void",      "volatile",  "wchar_t",    "while",
    };
    return keywords.contains(word);
}

} // namespace cmt::analyze
