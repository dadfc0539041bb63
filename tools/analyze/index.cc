#include "analyze/index.h"

#include "analyze/tokenizer.h"

#include <algorithm>
#include <regex>

namespace cmt::analyze
{

namespace
{

/** Tokens that may sit between a declarator's `)` and its body. */
bool
isFnQualifierToken(const Token &t)
{
    if (t.kind == TokKind::kPunct)
        return t.text == "&" || t.text == "&&" || t.text == "->" ||
               t.text == "*" || t.text == "::" || t.text == "<" ||
               t.text == ">" || t.text == ">>" || t.text == "," ||
               t.text == "(" || t.text == ")";
    if (t.kind != TokKind::kIdentifier)
        return false;
    return true; // const, noexcept, override, final, trailing types
}

class Parser
{
  public:
    Parser(const std::vector<Token> &all, FileSummary &out)
        : all_(all), out_(out)
    {
        for (const Token &t : all_) {
            if (t.kind == TokKind::kComment ||
                t.kind == TokKind::kHeaderName)
                continue;
            if (t.inDirective)
                continue;
            code_.push_back(&t);
        }
    }

    void run()
    {
        scanDirectivesAndUses();
        parseDeclScope(0, code_.size());
    }

  private:
    // ---------------------------------------------------------- raw
    // token-stream facts: includes, macros, identifier uses, allows

    void scanDirectivesAndUses()
    {
        // Rule names are [A-Za-z0-9_-] lists, so a placeholder in
        // prose (`allow(<rule>)`) is not a directive at all.
        static const std::regex allowRe(
            R"(cmt-analyze:\s*allow\(\s*([A-Za-z0-9_,\- ]+)\s*\))");
        // First code token per line, to tell directive-only comment
        // lines (which also cover the following line) from trailing
        // comments.
        std::map<int, std::size_t> firstCodeOnLine;
        for (const Token &t : all_) {
            if (t.kind == TokKind::kComment)
                continue;
            auto it = firstCodeOnLine.find(t.line);
            if (it == firstCodeOnLine.end() ||
                t.begin < it->second)
                firstCodeOnLine[t.line] = t.begin;
        }
        for (std::size_t i = 0; i < all_.size(); ++i) {
            const Token &t = all_[i];
            switch (t.kind) {
            case TokKind::kHeaderName: {
                if (t.text.size() < 2)
                    break;
                const std::string target =
                    t.text.substr(1, t.text.size() - 2);
                if (t.text[0] == '"') {
                    out_.quotedIncludes.push_back(target);
                    out_.quotedIncludeLines.push_back(t.line);
                } else {
                    out_.angledIncludes.push_back(target);
                }
                break;
            }
            case TokKind::kIdentifier: {
                if (!isKeyword(t.text))
                    out_.usedIdentifiers.emplace(t.text, t.line);
                // "#define NAME" declares NAME.
                if (t.inDirective && t.text == "define" && i >= 1 &&
                    all_[i - 1].kind == TokKind::kPunct &&
                    all_[i - 1].text == "#" &&
                    i + 1 < all_.size() &&
                    all_[i + 1].kind == TokKind::kIdentifier)
                    out_.declaredSymbols.insert(all_[i + 1].text);
                break;
            }
            case TokKind::kComment: {
                std::smatch m;
                if (!std::regex_search(t.text, m, allowRe))
                    break;
                // A directive inside a block comment sits on its own
                // line of that comment, not the comment's first.
                const auto at = t.text.begin() + m.position(0);
                const int line =
                    t.line + static_cast<int>(std::count(
                                 t.text.begin(), at, '\n'));
                const bool ownLine =
                    line > t.line ||
                    !firstCodeOnLine.contains(t.line) ||
                    firstCodeOnLine[t.line] >= t.begin;
                std::string rule;
                for (char c : m[1].str() + ",") {
                    if (c == ',' || c == ' ') {
                        if (!rule.empty()) {
                            out_.directives.emplace_back(line, rule);
                            out_.allowLines[rule].insert(line);
                            if (ownLine)
                                out_.allowLines[rule].insert(line + 1);
                            rule.clear();
                        }
                    } else {
                        rule += c;
                    }
                }
                break;
            }
            default:
                break;
            }
        }
    }

    // ------------------------------------------------------ helpers

    const Token &tok(std::size_t i) const { return *code_[i]; }
    bool is(std::size_t i, const char *text) const
    {
        return i < code_.size() && tok(i).text == text;
    }
    bool isIdent(std::size_t i) const
    {
        return i < code_.size() &&
               tok(i).kind == TokKind::kIdentifier &&
               !isKeyword(tok(i).text);
    }

    /** Index of the token matching the bracket at @p i, or @p end. */
    std::size_t matchBracket(std::size_t i, std::size_t end) const
    {
        const std::string &open = tok(i).text;
        std::string close;
        if (open == "(")
            close = ")";
        else if (open == "{")
            close = "}";
        else if (open == "[")
            close = "]";
        else
            return i;
        int depth = 0;
        for (std::size_t j = i; j < end; ++j) {
            if (tok(j).text == open)
                ++depth;
            else if (tok(j).text == close && --depth == 0)
                return j;
        }
        return end;
    }

    /** Next `;` at bracket depth 0 (skipping balanced groups). */
    std::size_t findSemi(std::size_t i, std::size_t end) const
    {
        for (std::size_t j = i; j < end; ++j) {
            const std::string &s = tok(j).text;
            if (s == "(" || s == "{" || s == "[") {
                j = matchBracket(j, end);
                continue;
            }
            if (s == ";")
                return j;
        }
        return end;
    }

    /** Skip a `template<...>` parameter list; @p i sits on `<`. */
    std::size_t skipAngles(std::size_t i, std::size_t end) const
    {
        int depth = 0;
        for (std::size_t j = i; j < end; ++j) {
            const std::string &s = tok(j).text;
            if (s == "<")
                ++depth;
            else if (s == ">")
                --depth;
            else if (s == ">>")
                depth -= 2;
            else if (s == ";" || s == "{")
                return j; // malformed; bail at a boundary
            if (depth <= 0)
                return j + 1;
        }
        return end;
    }

    // ------------------------------------------- declaration scopes

    /**
     * Parse declarations in [i, end): namespace bodies, class
     * bodies, and the global scope all route here. Function bodies
     * do not: parseFunctionDefinition skips them.
     */
    void parseDeclScope(std::size_t i, std::size_t end)
    {
        while (i < end) {
            const std::string &s = tok(i).text;
            if (s == ";" || s == "}") {
                ++i;
            } else if (s == "namespace") {
                i = parseNamespace(i, end);
            } else if (s == "class" || s == "struct" ||
                       s == "union") {
                i = parseClassLike(i, end);
            } else if (s == "enum") {
                i = parseEnum(i, end);
            } else if (s == "using") {
                i = parseUsing(i, end);
            } else if (s == "typedef") {
                i = parseTypedef(i, end);
            } else if (s == "template") {
                i = (i + 1 < end && is(i + 1, "<"))
                        ? skipAngles(i + 1, end)
                        : i + 1;
            } else if (s == "extern" && i + 2 < end &&
                       tok(i + 1).kind == TokKind::kString &&
                       is(i + 2, "{")) {
                // extern "C" { ... }: transparent scope.
                i += 3;
            } else if (s == "public" || s == "private" ||
                       s == "protected") {
                i = is(i + 1, ":") ? i + 2 : i + 1;
            } else if (s == "static_assert" || s == "friend" ||
                       s == "asm") {
                i = findSemi(i, end) + 1;
            } else {
                i = parseDeclaration(i, end);
            }
        }
    }

    std::size_t parseNamespace(std::size_t i, std::size_t end)
    {
        ++i; // namespace
        while (isIdent(i) || is(i, "::"))
            ++i;
        if (is(i, "=")) // namespace alias
            return findSemi(i, end) + 1;
        if (is(i, "{")) {
            const std::size_t close = matchBracket(i, end);
            parseDeclScope(i + 1, close);
            return close + 1;
        }
        return i;
    }

    std::size_t parseClassLike(std::size_t i, std::size_t end)
    {
        ++i; // class/struct/union
        std::string name;
        while (i < end) {
            const std::string &s = tok(i).text;
            if (s == "{" || s == ";" || s == ":")
                break;
            if (tok(i).kind == TokKind::kIdentifier &&
                !isKeyword(s)) {
                name = s;
                // A macro annotation (CMT_CAPABILITY("x")) between
                // the keyword and the name parses as ident+parens;
                // skipping the parens keeps the last plain
                // identifier as the class name.
                if (is(i + 1, "(")) {
                    i = matchBracket(i + 1, end) + 1;
                    continue;
                }
            }
            if (s == "final")
                name = name.empty() ? name : name; // keep prior name
            ++i;
        }
        if (is(i, ";")) { // forward declaration (or elaborated var)
            if (!name.empty())
                out_.declaredSymbols.insert(name);
            return i + 1;
        }
        if (is(i, ":")) { // base clause
            while (i < end && !is(i, "{"))
                ++i;
        }
        if (!is(i, "{"))
            return i + 1;
        if (!name.empty()) {
            out_.definedTypes.insert(name);
            out_.declaredSymbols.insert(name);
        }
        const std::size_t close = matchBracket(i, end);
        parseDeclScope(i + 1, close);
        return close + 1;
    }

    std::size_t parseEnum(std::size_t i, std::size_t end)
    {
        ++i; // enum
        if (is(i, "class") || is(i, "struct"))
            ++i;
        std::string name;
        if (isIdent(i)) {
            name = tok(i).text;
            ++i;
        }
        while (i < end && !is(i, "{") && !is(i, ";"))
            ++i; // underlying type
        if (is(i, ";")) {
            if (!name.empty())
                out_.declaredSymbols.insert(name);
            return i + 1;
        }
        if (!is(i, "{"))
            return i + 1;
        if (!name.empty()) {
            out_.definedTypes.insert(name);
            out_.declaredSymbols.insert(name);
        }
        const std::size_t close = matchBracket(i, end);
        // Enumerators: an identifier at the start or right after a
        // comma declares a value (initializer expressions skipped).
        bool expectName = true;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (expectName && isIdent(j)) {
                out_.declaredSymbols.insert(tok(j).text);
                expectName = false;
            } else if (is(j, ",")) {
                expectName = true;
            } else if (tok(j).text == "(" || tok(j).text == "{") {
                j = matchBracket(j, close);
            }
        }
        return close + 1;
    }

    std::size_t parseUsing(std::size_t i, std::size_t end)
    {
        if (is(i + 1, "namespace"))
            return findSemi(i, end) + 1;
        const std::size_t semi = findSemi(i, end);
        std::string declared;
        for (std::size_t j = i + 1; j < semi; ++j) {
            if (is(j, "="))
                break; // alias: name precedes '='
            if (isIdent(j))
                declared = tok(j).text;
        }
        if (!declared.empty())
            out_.declaredSymbols.insert(declared);
        return semi + 1;
    }

    std::size_t parseTypedef(std::size_t i, std::size_t end)
    {
        const std::size_t semi = findSemi(i, end);
        std::string declared;
        for (std::size_t j = i + 1; j < semi; ++j)
            if (isIdent(j))
                declared = tok(j).text;
        if (!declared.empty())
            out_.declaredSymbols.insert(declared);
        return semi + 1;
    }

    /**
     * A declaration that is not a type/alias: a function
     * (declaration or definition), a variable, or a macro
     * invocation. Detected by shape: an identifier followed by a
     * balanced paren group that is in declarator position (no `=`
     * seen yet) is a candidate; what follows the group decides.
     */
    std::size_t parseDeclaration(std::size_t i, std::size_t end)
    {
        bool sawEquals = false;
        std::string lastIdent;
        std::size_t j = i;
        while (j < end) {
            const std::string &s = tok(j).text;
            if (s == ";") {
                if (!lastIdent.empty())
                    out_.declaredSymbols.insert(lastIdent);
                return j + 1;
            }
            if (s == "=") {
                sawEquals = true;
                ++j;
                continue;
            }
            if (s == "{") {
                // Brace initializer at declaration scope (no param
                // list seen): skip it and keep scanning to ';'.
                j = matchBracket(j, end) + 1;
                continue;
            }
            if (s == "(" && j > i && isIdent(j - 1) && !sawEquals) {
                const std::size_t close = matchBracket(j, end);
                std::size_t k = close + 1;
                while (k < end && !is(k, "{")) {
                    // A GNU attribute's arguments may be any tokens
                    // (format(printf, 1, 2)): skip the whole group.
                    if (is(k, "__attribute__") && is(k + 1, "("))
                        k = matchBracket(k + 1, end) + 1;
                    else if (isFnQualifierToken(tok(k)))
                        ++k;
                    else
                        break;
                }
                if (is(k, "{") || is(k, ":")) {
                    if (is(k, ":"))
                        k = skipCtorInitList(k, end);
                    if (is(k, "{")) {
                        // A definition: declare the name, skip the
                        // body.
                        out_.declaredSymbols.insert(tok(j - 1).text);
                        return matchBracket(k, end) + 1;
                    }
                }
                if (is(k, ";") || is(k, "=")) {
                    // Declaration (or `= default/delete/0`).
                    out_.declaredSymbols.insert(tok(j - 1).text);
                    return findSemi(k, end) + 1;
                }
                // Not a declarator after all (e.g. a macro in a
                // member decl); continue past the group.
                lastIdent = tok(j - 1).text;
                j = close + 1;
                continue;
            }
            if (isIdent(j))
                lastIdent = s;
            ++j;
        }
        return end;
    }

    /** @p i on ':' after a constructor's `)`. Returns the index of
     *  the body '{' (or @p end). */
    std::size_t skipCtorInitList(std::size_t i, std::size_t end) const
    {
        std::size_t j = i + 1;
        while (j < end) {
            // member name (possibly templated base)
            while (j < end && !is(j, "(") && !is(j, "{") &&
                   !is(j, ";"))
                ++j;
            if (j >= end || is(j, ";"))
                return j;
            if (is(j, "{") && !isInitItemBrace(j))
                return j; // body
            j = matchBracket(j, end) + 1;
            if (is(j, ","))
                ++j;
            else
                return j; // body '{' (or malformed)
        }
        return end;
    }

    /** In an init list, `name{...}` braces belong to the item; a
     *  brace right after ',' or ':' cannot (that is the body). */
    bool isInitItemBrace(std::size_t j) const
    {
        return j > 0 && isIdent(j - 1);
    }

    const std::vector<Token> &all_;
    std::vector<const Token *> code_;
    FileSummary &out_;
};

} // namespace

FileSummary
summarizeSource(const std::string &path,
                const std::vector<Token> &tokens)
{
    FileSummary out;
    out.path = path;
    Parser(tokens, out).run();
    return out;
}

bool
allowedAt(const FileSummary &file, const std::string &rule, int line)
{
    auto it = file.allowLines.find(rule);
    return it != file.allowLines.end() && it->second.contains(line);
}

} // namespace cmt::analyze
