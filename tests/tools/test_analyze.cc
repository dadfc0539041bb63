/**
 * @file
 * Unit tests for the cmt_analyze engine: the tokenizer, the per-file
 * symbol index, each per-file rule and each whole-program pass
 * against inline known-good/known-bad sources, the
 * suppression-directive contract, and the committed fixture trees
 * under tests/tools/fixtures/ (bad/ lights up every per-file rule,
 * each analyze/bad/<rule> fires exactly its pass, the good trees stay
 * clean). The binary's exit-code contract is covered by the
 * analyze_* ctest entries in tests/CMakeLists.txt.
 */

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analysis.h"
#include "analyze/index.h"
#include "analyze/passes.h"
#include "analyze/tokenizer.h"

namespace cmt::analyze
{
namespace
{

// --- tokenizer --------------------------------------------------------

std::vector<Token>
lexCode(const std::string &src)
{
    std::vector<Token> out;
    for (const Token &t : tokenize(src))
        if (t.kind != TokKind::kComment)
            out.push_back(t);
    return out;
}

std::string
scrub(const std::string &src)
{
    return scrubSource(src, tokenize(src));
}

FileSummary
summarize(const std::string &path, const std::string &src)
{
    return summarizeSource(path, tokenize(src));
}

TEST(Tokenizer, DigitSeparatorsStayInsideTheNumberToken)
{
    const auto toks = lexCode("n = 1'000'000 + f();");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[2].kind, TokKind::kNumber);
    EXPECT_EQ(toks[2].text, "1'000'000");
    // The token after the separator-bearing number must be the
    // operator, not the tail of a runaway char literal.
    EXPECT_EQ(toks[3].text, "+");
}

TEST(Tokenizer, HexSeparatorsAndFloatExponents)
{
    EXPECT_EQ(lexCode("0xFF'FF'00'00")[0].text, "0xFF'FF'00'00");
    EXPECT_EQ(lexCode("1.5e+3")[0].text, "1.5e+3");
    EXPECT_EQ(lexCode("0x1p-2")[0].text, "0x1p-2");
}

TEST(Tokenizer, PrefixedCharLiteralsLexAsOneToken)
{
    for (const char *src : {"L'x'", "u8'a'", "u'q'", "U'z'"}) {
        const auto toks = lexCode(src);
        ASSERT_EQ(toks.size(), 1u) << src;
        EXPECT_EQ(toks[0].kind, TokKind::kCharLiteral) << src;
        EXPECT_EQ(toks[0].text, src);
    }
}

TEST(Tokenizer, RawStringsRespectTheirDelimiter)
{
    const auto toks =
        lexCode("auto s = R\"x(a \")\" b)x\"; int k;");
    const auto it = std::find_if(
        toks.begin(), toks.end(), [](const Token &t) {
            return t.kind == TokKind::kString;
        });
    ASSERT_NE(it, toks.end());
    EXPECT_EQ(it->text, "R\"x(a \")\" b)x\"");
    // Lexing resumes cleanly after the raw string.
    EXPECT_NE(std::find_if(toks.begin(), toks.end(),
                           [](const Token &t) {
                               return t.text == "k";
                           }),
              toks.end());
}

TEST(Tokenizer, IncludeTargetsLexAsHeaderNames)
{
    const auto toks = tokenize("#include <vector>\n"
                               "#include \"tree/layout.h\"\n");
    std::vector<std::string> headers;
    for (const Token &t : toks)
        if (t.kind == TokKind::kHeaderName) {
            EXPECT_TRUE(t.inDirective);
            headers.push_back(t.text);
        }
    EXPECT_EQ(headers,
              (std::vector<std::string>{"<vector>",
                                        "\"tree/layout.h\""}));
}

TEST(Tokenizer, LineSplicesContinueTheDirective)
{
    const auto toks = tokenize("#define X a \\\n    b\nint c;\n");
    bool sawB = false;
    for (const Token &t : toks)
        if (t.text == "b") {
            sawB = true;
            EXPECT_TRUE(t.inDirective);
        }
    EXPECT_TRUE(sawB);
    for (const Token &t : toks)
        if (t.text == "c") {
            EXPECT_FALSE(t.inDirective);
        }
}

TEST(Tokenizer, ScrubBlanksLiteralsButKeepsStructure)
{
    const std::string out = scrub(
        "int a; // secret()\n"
        "const char *s = \"secret()\";\n"
        "char c = 'x';\n");
    EXPECT_EQ(out.find("secret"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    // Quote delimiters survive; contents are spaces.
    EXPECT_NE(out.find('"'), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Tokenizer, KeywordsClassify)
{
    EXPECT_TRUE(isKeyword("while"));
    EXPECT_TRUE(isKeyword("sizeof"));
    EXPECT_FALSE(isKeyword("verify"));
}

// --- symbol index -----------------------------------------------------

const FunctionInfo *
findFn(const FileSummary &s, const std::string &name)
{
    for (const FunctionInfo &f : s.functions)
        if (f.name == name)
            return &f;
    return nullptr;
}

TEST(Index, ExtractsFunctionShape)
{
    const FileSummary s = summarize(
        "src/tree/x.cc",
        "std::vector<std::uint8_t>\n"
        "Widget::fetch(std::uint64_t chunk)\n"
        "{\n"
        "    return ram_.readChunk(chunk);\n"
        "}\n");
    const FunctionInfo *fn = findFn(s, "fetch");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->className, "Widget");
    EXPECT_FALSE(fn->returnsVoid);
    EXPECT_EQ(fn->nameLine, 2);
    EXPECT_EQ(fn->bodyOpenLine, 3);
    EXPECT_EQ(fn->endLine, 5);
    ASSERT_EQ(fn->events.size(), 2u);
    EXPECT_EQ(fn->events[0].kind, Event::Kind::kRead);
    EXPECT_EQ(fn->events[1].kind, Event::Kind::kReturn);
}

TEST(Index, DetectsMutableSpanOutParams)
{
    const FileSummary s = summarize(
        "src/tree/x.cc",
        "void fill(std::span<std::uint8_t> out) {}\n"
        "void peek(std::span<const std::uint8_t> in) {}\n");
    ASSERT_NE(findFn(s, "fill"), nullptr);
    EXPECT_TRUE(findFn(s, "fill")->hasMutableSpanParam);
    ASSERT_NE(findFn(s, "peek"), nullptr);
    EXPECT_FALSE(findFn(s, "peek")->hasMutableSpanParam);
}

TEST(Index, BranchesLocksAndDiscardsBecomeEvents)
{
    const FileSummary s = summarize(
        "src/tree/x.cc",
        "void f()\n"
        "{\n"
        "    MutexLock guard(mu_);\n"
        "    if (cond()) {\n"
        "        verify(a, b);\n"
        "    } else {\n"
        "        save(a);\n"
        "    }\n"
        "}\n");
    const FunctionInfo *fn = findFn(s, "f");
    ASSERT_NE(fn, nullptr);
    std::vector<Event::Kind> kinds;
    for (const Event &e : fn->events)
        kinds.push_back(e.kind);
    EXPECT_EQ(kinds,
              (std::vector<Event::Kind>{
                  Event::Kind::kLock, Event::Kind::kCall,
                  Event::Kind::kIfBegin, Event::Kind::kVerify,
                  Event::Kind::kElseBegin, Event::Kind::kCall,
                  Event::Kind::kIfEnd, Event::Kind::kUnlock}));
    // The discarded save() call is marked.
    for (const Event &e : fn->events)
        if (e.name == "save") {
            EXPECT_TRUE(e.discarded);
        }
}

TEST(Index, DeclaredSymbolsCoverTypesEnumsAliasesAndMacros)
{
    const FileSummary s = summarize(
        "src/x.h",
        "#define WIDTH 8\n"
        "struct Node { int v; };\n"
        "enum class Mode { kA, kB };\n"
        "enum Flags { kRaw = 1 };\n"
        "using Row = std::vector<int>;\n"
        "typedef int Cell;\n");
    for (const char *sym :
         {"WIDTH", "Node", "Mode", "Flags", "kRaw", "Row", "Cell"})
        EXPECT_TRUE(s.declaredSymbols.contains(sym)) << sym;
    EXPECT_TRUE(s.definedTypes.contains("Node"));
    EXPECT_TRUE(s.definedTypes.contains("Mode"));
}

TEST(Index, TrailingGnuAttributeKeepsTheFunctionDeclared)
{
    const FileSummary s = summarize(
        "src/x.h",
        "void warn(const char *fmt, ...)\n"
        "    __attribute__((format(printf, 1, 2)));\n");
    EXPECT_TRUE(s.declaredSymbols.contains("warn"));
    EXPECT_FALSE(s.declaredSymbols.contains("__attribute__"));
}

TEST(Index, AllowDirectivesCoverTheirLineAndTheNext)
{
    const FileSummary s = summarize(
        "src/x.cc",
        "int a; // cmt-analyze: allow(lock-order)\n"
        "// cmt-analyze: allow(trust-boundary)\n"
        "int b;\n"
        "int c;\n");
    EXPECT_TRUE(allowedAt(s, "lock-order", 1));
    EXPECT_FALSE(allowedAt(s, "lock-order", 2));
    // A directive-only line covers itself and the next line.
    EXPECT_TRUE(allowedAt(s, "trust-boundary", 2));
    EXPECT_TRUE(allowedAt(s, "trust-boundary", 3));
    EXPECT_FALSE(allowedAt(s, "trust-boundary", 4));
}

TEST(Index, BlockCommentDirectiveSitsOnItsOwnLine)
{
    const FileSummary s = summarize(
        "src/x.cc",
        "/*\n"
        " * cmt-analyze: allow(naked-new)\n"
        " */\n"
        "int *p = new int;\n");
    EXPECT_FALSE(allowedAt(s, "naked-new", 1));
    EXPECT_TRUE(allowedAt(s, "naked-new", 2));
    EXPECT_TRUE(allowedAt(s, "naked-new", 3));
    EXPECT_FALSE(allowedAt(s, "naked-new", 4));
}

TEST(Index, DirectiveInsideStringLiteralIsData)
{
    const FileSummary s = summarize(
        "src/x.cc",
        "const char *s = \"// cmt-analyze: allow(lock-order)\";\n");
    EXPECT_FALSE(allowedAt(s, "lock-order", 1));
}

// --- per-file rules -------------------------------------------------

std::vector<std::string>
rulesFired(const std::string &path, const std::string &source)
{
    std::vector<std::string> rules;
    const FileSummary file = summarize(path, source);
    for (const Diagnostic &d : fileRulePass(file, scrub(source), {}))
        rules.push_back(d.rule);
    return rules;
}

bool
fires(const std::string &path, const std::string &source,
      const std::string &rule)
{
    const auto rules = rulesFired(path, source);
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

TEST(LintNondeterminism, FlagsRandFamilyInSrc)
{
    EXPECT_TRUE(fires("src/sim/x.cc", "int x = rand();",
                      "nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc", "srand(42);", "nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc", "std::random_device rd;",
                      "nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc", "auto t = time(nullptr);",
                      "nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc", "auto c = clock();",
                      "nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc",
                      "auto n = std::chrono::system_clock::now();",
                      "nondeterminism"));
}

TEST(LintNondeterminism, SilentOutsideSrcAndOnCleanCode)
{
    // bench/tests may use wall-clock freely.
    EXPECT_FALSE(fires("bench/x.cc", "int x = rand();",
                       "nondeterminism"));
    EXPECT_FALSE(fires("tests/x.cc", "srand(42);", "nondeterminism"));
    // Identifier substrings and monotonic clocks are fine in src/.
    EXPECT_FALSE(fires("src/x.cc", "int operand = timestamp;",
                       "nondeterminism"));
    EXPECT_FALSE(fires(
        "src/x.cc",
        "auto t = std::chrono::steady_clock::now();"
        "auto d = t.time_since_epoch();",
        "nondeterminism"));
    EXPECT_FALSE(fires("src/x.cc", "// call rand() for chaos",
                       "nondeterminism"));
}

// --- stdout-discipline ------------------------------------------------

TEST(LintStdout, FlagsCoutAndBarePrintfInSrc)
{
    EXPECT_TRUE(fires("src/tree/x.cc", "std::cout << 1;",
                      "stdout-discipline"));
    EXPECT_TRUE(fires("src/tree/x.cc", "printf(\"%d\", 1);",
                      "stdout-discipline"));
    EXPECT_TRUE(fires("src/tree/x.cc", "std::printf(\"x\");",
                      "stdout-discipline"));
    EXPECT_TRUE(
        fires("src/tree/x.cc", "puts(\"x\");", "stdout-discipline"));
}

TEST(LintStdout, AllowsSupportBenchToolsAndBufferedFormatting)
{
    // src/support owns the logging implementation.
    EXPECT_FALSE(fires("src/support/logging.cc", "printf(\"x\");",
                       "stdout-discipline"));
    // Harness/tool mains own stdout.
    EXPECT_FALSE(fires("bench/fig0.cc", "std::cout << 1;",
                       "stdout-discipline"));
    EXPECT_FALSE(fires("tools/cli.cc", "printf(\"x\");",
                       "stdout-discipline"));
    // Formatting into buffers / single-call stderr stays legal.
    EXPECT_FALSE(fires("src/x.cc", "snprintf(b, n, \"x\");",
                       "stdout-discipline"));
    EXPECT_FALSE(fires("src/x.cc", "std::fprintf(stderr, \"x\");",
                       "stdout-discipline"));
    EXPECT_FALSE(fires("src/x.cc", "std::fputs(line, stderr);",
                       "stdout-discipline"));
}

TEST(LintStdout, FlagsCstdioIncludeOutsideSupport)
{
    EXPECT_TRUE(fires("src/tree/x.cc", "#include <cstdio>\n",
                      "stdout-discipline"));
    EXPECT_TRUE(fires("src/tree/x.h", "#include <stdio.h>\n",
                      "stdout-discipline"));
    EXPECT_TRUE(fires("src/mem/x.cc", "#  include  <cstdio>\n",
                      "stdout-discipline"));
}

TEST(LintStdout, AllowsCstdioWhereJustified)
{
    // src/support owns the serialized stderr sink.
    EXPECT_FALSE(fires("src/support/logging.cc", "#include <cstdio>\n",
                       "stdout-discipline"));
    // Harness/tool mains own their output streams.
    EXPECT_FALSE(fires("bench/fig0.cc", "#include <cstdio>\n",
                       "stdout-discipline"));
    EXPECT_FALSE(fires("tools/cli.cc", "#include <cstdio>\n",
                       "stdout-discipline"));
    // A justified FILE* owner documents itself with a directive.
    EXPECT_FALSE(fires("src/trace/x.h",
                       "// cmt-analyze: allow(stdout-discipline)\n"
                       "#include <cstdio>\n",
                       "stdout-discipline"));
    // Other C headers must not match.
    EXPECT_FALSE(fires("src/tree/x.cc", "#include <cstdlib>\n",
                       "stdout-discipline"));
    EXPECT_FALSE(fires("src/tree/x.cc", "#include <cstdint>\n",
                       "stdout-discipline"));
}

// --- naked-new --------------------------------------------------------

TEST(LintNakedNew, FlagsNewAndDeleteExpressions)
{
    EXPECT_TRUE(fires("src/x.cc", "int *p = new int[4];",
                      "naked-new"));
    EXPECT_TRUE(fires("src/x.cc", "delete p;", "naked-new"));
    EXPECT_TRUE(fires("src/x.cc", "delete[] p;", "naked-new"));
}

TEST(LintNakedNew, AllowsDeletedMembersAndIdentifiers)
{
    EXPECT_FALSE(fires("src/x.h", "Widget(const Widget &) = delete;",
                       "naked-new"));
    EXPECT_FALSE(fires("src/x.h",
                       "Widget &operator=(Widget &&) =\n    delete;",
                       "naked-new"));
    EXPECT_FALSE(
        fires("src/x.cc", "int newish = renewed;", "naked-new"));
    EXPECT_FALSE(fires("src/x.cc", "// the new line starts valid",
                       "naked-new"));
    // Outside src/ the rule is off (tests/bench build what they like).
    EXPECT_FALSE(fires("tests/x.cc", "delete p;", "naked-new"));
}

// --- header-guard -----------------------------------------------------

TEST(LintHeaderGuard, AcceptsBothGuardStyles)
{
    EXPECT_FALSE(fires("src/a.h",
                       "#ifndef CMT_A_H\n#define CMT_A_H\n#endif\n",
                       "header-guard"));
    EXPECT_FALSE(
        fires("src/b.h", "#pragma once\nint f();\n", "header-guard"));
}

TEST(LintHeaderGuard, FlagsMissingAndMismatchedGuards)
{
    EXPECT_TRUE(fires("src/a.h", "int f();\n", "header-guard"));
    // #ifndef whose #define names a different macro is no guard.
    EXPECT_TRUE(fires("src/a.h",
                      "#ifndef CMT_A_H\n#define CMT_B_H\n#endif\n",
                      "header-guard"));
    // Sources are exempt.
    EXPECT_FALSE(fires("src/a.cc", "int f() { return 1; }\n",
                       "header-guard"));
}

// --- catch-all --------------------------------------------------------

TEST(LintCatchAll, FlagsEllipsisCatchInSrcBenchTools)
{
    EXPECT_TRUE(fires("src/x.cc", "try { f(); } catch (...) {}",
                      "catch-all"));
    EXPECT_TRUE(fires("bench/x.cc", "catch ( ... ) { }",
                      "catch-all"));
    EXPECT_TRUE(fires("tools/x.cc", "catch(...) {}", "catch-all"));
}

TEST(LintCatchAll, AllowsNarrowCatchesAndTests)
{
    EXPECT_FALSE(fires("src/x.cc",
                       "catch (const std::exception &e) {}",
                       "catch-all"));
    // gtest machinery may catch-all inside tests/.
    EXPECT_FALSE(fires("tests/x.cc", "catch (...) {}", "catch-all"));
}

// --- root-registers ---------------------------------------------------

TEST(LintRootRegisters, FlagsRawMemberAndDirectIndexing)
{
    EXPECT_TRUE(fires("src/tree/x.h", "std::vector<Slot> roots_;",
                      "root-registers"));
    EXPECT_TRUE(
        fires("src/tree/x.cc", "return roots_[i];", "root-registers"));
    EXPECT_TRUE(fires("src/verify/x.cc", "ctx.roots[chunk] = slot;",
                      "root-registers"));
    EXPECT_TRUE(fires("src/tree/x.cc", "tree->roots[0] = s;",
                      "root-registers"));
}

TEST(LintRootRegisters, AllowsRouterAndSanctionedAccess)
{
    // The router itself owns the registers.
    EXPECT_FALSE(fires("src/tree/shard_router.h",
                       "return contexts_[s].roots[c];",
                       "root-registers"));
    // rootOf() and whole-context iteration are the sanctioned API.
    EXPECT_FALSE(fires("src/verify/x.cc", "tree_.rootOf(chunk) = v;",
                       "root-registers"));
    EXPECT_FALSE(fires("src/verify/x.cc",
                       "for (Slot &r : tree_.context(s).roots)\n"
                       "    fold(r);\n",
                       "root-registers"));
    // Longer identifiers must not match.
    EXPECT_FALSE(fires("src/tree/x.cc", "unsigned roots_seen = 0;",
                       "root-registers"));
    // Outside src/ the rule is off (tests poke internals freely).
    EXPECT_FALSE(fires("tests/tree/x.cc", "Slot roots_[4];",
                       "root-registers"));
}

// --- seed-nondeterminism ----------------------------------------------

TEST(LintSeedNondeterminism, FlagsWallClockSeedsInTestsBenchTools)
{
    EXPECT_TRUE(fires("tests/fuzz/x.cc",
                      "cmt::Rng rng(time(nullptr));",
                      "seed-nondeterminism"));
    EXPECT_TRUE(fires("tests/fuzz/x.cc",
                      "unsigned s = getpid() ^ 7;",
                      "seed-nondeterminism"));
    EXPECT_TRUE(fires("bench/x.cc", "std::random_device rd;",
                      "seed-nondeterminism"));
    EXPECT_TRUE(fires("tools/x.cc", "seed ^= time(0);",
                      "seed-nondeterminism"));
}

TEST(LintSeedNondeterminism, AllowsFixedSeedsAndDefersToSrcRule)
{
    // Explicit seeds and identifier substrings stay clean.
    EXPECT_FALSE(fires("tests/fuzz/x.cc", "cmt::Rng rng(12345);",
                       "seed-nondeterminism"));
    EXPECT_FALSE(fires("tests/x.cc", "auto d = runtime(cfg);",
                       "seed-nondeterminism"));
    EXPECT_FALSE(fires("tests/x.cc", "long p = cmt_getpid();",
                       "seed-nondeterminism"));
    EXPECT_FALSE(fires("tests/x.cc", "// seed from time() is bad",
                       "seed-nondeterminism"));
    // src/ wall-clock use is the stricter nondeterminism rule's job.
    EXPECT_FALSE(fires("src/sim/x.cc", "auto t = time(nullptr);",
                       "seed-nondeterminism"));
    EXPECT_TRUE(fires("src/sim/x.cc", "pid_t p = getpid();",
                      "nondeterminism"));
}

TEST(LintHotPathAlloc, FlagsTypeErasureAndSharedAllocInTree)
{
    EXPECT_TRUE(fires("src/tree/cached_tree_policy.cc",
                      "std::function<void()> cb = job;",
                      "hot-path-alloc"));
    EXPECT_TRUE(fires("src/tree/naive_policy.cc",
                      "auto job = std::make_shared<Job>();",
                      "hot-path-alloc"));
    EXPECT_TRUE(fires("src/tree/hash_engine.h",
                      "std :: function<void()> f;",
                      "hot-path-alloc"));
}

TEST(LintHotPathAlloc, ScopedToTreeAndRespectsEscapes)
{
    // The rule polices the per-miss policy paths only; the rest of
    // the simulator (and harness code) may use type erasure freely.
    EXPECT_FALSE(fires("src/sim/runner.cc",
                       "std::function<void()> task;",
                       "hot-path-alloc"));
    EXPECT_FALSE(fires("tests/tree/x.cc",
                       "auto p = std::make_shared<Policy>();",
                       "hot-path-alloc"));
    // Identifier substrings are not calls.
    EXPECT_FALSE(fires("src/tree/x.cc",
                       "void make_shared_things_happen();",
                       "hot-path-alloc"));
    EXPECT_FALSE(fires("src/tree/x.cc",
                       "SmallCallback<void()> onDone;",
                       "hot-path-alloc"));
    // Cold-path wiring justifies itself with the usual directive.
    EXPECT_FALSE(fires("src/tree/l2.h",
                       "// cmt-analyze: allow(hot-path-alloc)\n"
                       "std::function<void()> onBackInvalidate;\n",
                       "hot-path-alloc"));
}

TEST(LintNakedNew, SkipsPreprocessorDirectives)
{
    // The earlier fix: #include <new> and macro lines never contain
    // allocation expressions, so the rule must not fire on them.
    EXPECT_FALSE(fires("src/support/x.cc", "#include <new>\n",
                       "naked-new"));
    EXPECT_FALSE(fires("src/support/x.cc",
                       "  #define MAKE_NEW(T) T\n", "naked-new"));
    EXPECT_TRUE(fires("src/support/x.cc", "int *p = new int;\n",
                      "naked-new"));
}

// --- suppression directives -------------------------------------------

TEST(LintAllow, TrailingDirectiveSuppressesItsLine)
{
    EXPECT_FALSE(fires(
        "src/x.cc",
        "int x = rand(); // cmt-analyze: allow(nondeterminism)\n",
        "nondeterminism"));
}

TEST(LintAllow, DirectiveOnlyLineCoversNextLine)
{
    EXPECT_FALSE(fires("src/x.cc",
                       "// cmt-analyze: allow(naked-new)\n"
                       "int *p = new int;\n",
                       "naked-new"));
    // ...but not two lines down.
    EXPECT_TRUE(fires("src/x.cc",
                      "// cmt-analyze: allow(naked-new)\n"
                      "int a = 0;\n"
                      "int *p = new int;\n",
                      "naked-new"));
}

TEST(LintAllow, SuppressionIsPerRule)
{
    // Allowing one rule must not silence another on the same line.
    EXPECT_TRUE(fires(
        "src/x.cc",
        "int *p = new int(rand()); "
        "// cmt-analyze: allow(nondeterminism)\n",
        "naked-new"));
}

TEST(LintAllow, CommaListSuppressesSeveralRulesOnOneLine)
{
    const std::string src =
        "int *p = new int(rand()); "
        "// cmt-analyze: allow(naked-new, nondeterminism)\n";
    EXPECT_FALSE(fires("src/x.cc", src, "naked-new"));
    EXPECT_FALSE(fires("src/x.cc", src, "nondeterminism"));
    // The list is still per-rule: unlisted rules keep firing.
    EXPECT_TRUE(fires(
        "src/x.cc",
        "try { f(); } catch (...) { srand(1); } "
        "// cmt-analyze: allow(nondeterminism, header-guard)\n",
        "catch-all"));
}

TEST(LintAllow, BlockCommentDirectiveCounts)
{
    EXPECT_FALSE(fires(
        "src/x.cc",
        "int x = rand(); /* cmt-analyze: allow(nondeterminism) */\n",
        "nondeterminism"));
}

TEST(LintAllow, UnknownRuleNameIsItselfDiagnosed)
{
    EXPECT_TRUE(fires("src/x.cc",
                      "int x = 0; // cmt-analyze: allow(no-such-rule)\n",
                      "bad-directive"));
}

TEST(LintAllow, PlaceholderInProseIsNoDirective)
{
    // Docs spell the syntax with a placeholder; rule names are
    // [A-Za-z0-9_-], so `<rule>` neither parses nor misfires.
    EXPECT_FALSE(fires("src/x.cc",
                       "// suppress with `// cmt-analyze: allow(<rule>)`\n",
                       "bad-directive"));
}

TEST(LintAllow, DirectiveInsideStringLiteralIsData)
{
    // A directive spelled in a string literal neither suppresses a
    // finding nor counts as a (mis)spelled directive.
    EXPECT_FALSE(fires(
        "src/x.cc",
        "const char *s = \"// cmt-analyze: allow(no-such-rule)\";\n",
        "bad-directive"));
    EXPECT_TRUE(fires("src/x.cc",
                      "int x = rand(); const char *s = "
                      "\"cmt-analyze: allow(nondeterminism)\";\n",
                      "nondeterminism"));
}

TEST(LintAllow, DirectiveInsideRawStringIsData)
{
    // Raw strings blank entirely during the directive scan, so a
    // directive spelled inside one must not suppress anything.
    EXPECT_TRUE(fires(
        "src/x.cc",
        "int x = rand(); const char *s = "
        "R\"(// cmt-analyze: allow(nondeterminism))\";\n",
        "nondeterminism"));
}

// --- scrubber ---------------------------------------------------------

TEST(LintScrub, RemovesCommentsAndLiteralContents)
{
    const std::string out = scrub(
        "int a; // rand()\n"
        "/* new delete */ int b;\n"
        "const char *s = \"catch (...)\";\n"
        "char c = 'x';\n");
    EXPECT_EQ(out.find("rand"), std::string::npos);
    EXPECT_EQ(out.find("new"), std::string::npos);
    EXPECT_EQ(out.find("catch"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
    // Line structure is preserved for diagnostics.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(LintScrub, HandlesRawStringsAndDigitSeparators)
{
    const std::string out = scrub(
        "auto s = R\"(printf(\"x\") rand())\";\n"
        "std::uint64_t n = 1'000'000;\n"
        "int after = rand();\n");
    EXPECT_EQ(out.find("printf"), std::string::npos);
    // The digit separator must not open a char literal that swallows
    // the rest of the file.
    EXPECT_NE(out.find("int after = rand();"), std::string::npos);
}

TEST(LintScrub, EscapedQuotesStayInsideStrings)
{
    const std::string out = scrub(
        "const char *s = \"a \\\" rand() b\";\nint keep;\n");
    EXPECT_EQ(out.find("rand"), std::string::npos);
    EXPECT_NE(out.find("int keep;"), std::string::npos);
}

// --- trust-boundary ---------------------------------------------------

std::vector<Diagnostic>
runOn(const std::vector<std::pair<std::string, std::string>> &srcs,
      const std::string &rule)
{
    std::vector<FileSummary> files;
    for (const auto &[path, text] : srcs)
        files.push_back(summarize(path, text));
    return runPasses(files, {rule});
}

TEST(TrustBoundary, GatedVerifyLeavesTheSkipPathTainted)
{
    // The CMT_FAULT_SKIP_VERIFY_SHARD shape: verification sits
    // behind a condition, so one path returns unchecked bytes.
    const auto diags = runOn(
        {{"src/tree/fill.cc",
          "std::vector<std::uint8_t> fill(std::uint64_t c)\n"
          "{\n"
          "    auto img = ram_.readChunk(c);\n"
          "    if (!faultSkipVerifyShard(c)) {\n"
          "        verify(c, img);\n"
          "    }\n"
          "    return img;\n"
          "}\n"}},
        "trust-boundary");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "trust-boundary");
    EXPECT_EQ(diags[0].line, 7);
}

TEST(TrustBoundary, UnconditionalVerifyIsClean)
{
    EXPECT_TRUE(runOn({{"src/tree/fill.cc",
                        "std::vector<std::uint8_t> fill(int c)\n"
                        "{\n"
                        "    auto img = ram_.readChunk(c);\n"
                        "    verify(c, img);\n"
                        "    return img;\n"
                        "}\n"}},
                      "trust-boundary")
                    .empty());
}

TEST(TrustBoundary, VerifyingHelperSanitizesAcrossFiles)
{
    const std::vector<std::pair<std::string, std::string>> srcs = {
        {"src/tree/fill.cc",
         "std::vector<std::uint8_t> fill(int c)\n"
         "{\n"
         "    auto img = ram_.readChunk(c);\n"
         "    checkChunk(c, img);\n"
         "    return img;\n"
         "}\n"},
        {"src/tree/check.cc",
         "void checkChunk(int c, const Image &img)\n"
         "{\n"
         "    if (!auth_.verify(c, img))\n"
         "        throw IntegrityError(c);\n"
         "}\n"}};
    EXPECT_TRUE(runOn(srcs, "trust-boundary").empty());
    // Without the helper's definition, the call sanitizes nothing.
    EXPECT_EQ(runOn({srcs[0]}, "trust-boundary").size(), 1u);
}

TEST(TrustBoundary, BothBranchesMustVerify)
{
    const auto diags = runOn(
        {{"src/verify/x.cc",
          "std::vector<std::uint8_t> f(int c)\n"
          "{\n"
          "    auto img = ram_.readChunk(c);\n"
          "    if (fast) {\n"
          "        verify(c, img);\n"
          "        return img;\n"
          "    }\n"
          "    return img;\n"
          "}\n"}},
        "trust-boundary");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 8);
}

TEST(TrustBoundary, MutableSpanOutParamIsASink)
{
    const auto diags = runOn(
        {{"src/tree/x.cc",
          "void fill(int c, std::span<std::uint8_t> out)\n"
          "{\n"
          "    auto img = ram_.readChunk(c);\n"
          "    copy(img, out);\n"
          "}\n"}},
        "trust-boundary");
    EXPECT_EQ(diags.size(), 1u);
}

TEST(TrustBoundary, OnlyTreeAndVerifyDirsAreInScope)
{
    EXPECT_TRUE(runOn({{"src/sim/x.cc",
                        "std::vector<std::uint8_t> f(int c)\n"
                        "{ return ram_.readChunk(c); }\n"}},
                      "trust-boundary")
                    .empty());
}

TEST(TrustBoundary, FunctionScopedAllowSuppresses)
{
    EXPECT_TRUE(runOn({{"src/tree/x.cc",
                        "// cmt-analyze: allow(trust-boundary)\n"
                        "std::vector<std::uint8_t> raw(int c)\n"
                        "{ return ram_.readChunk(c); }\n"}},
                      "trust-boundary")
                    .empty());
}

// --- lock-order -------------------------------------------------------

TEST(LockOrder, AbbaOrderingIsACycle)
{
    const auto diags = runOn(
        {{"src/sim/x.cc",
          "void a() { MutexLock l1(mu_a); MutexLock l2(mu_b); }\n"
          "void b() { MutexLock l2(mu_b); MutexLock l1(mu_a); }\n"}},
        "lock-order");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "lock-order");
    EXPECT_NE(diags[0].message.find("cycle"), std::string::npos);
}

TEST(LockOrder, ConsistentOrderIsClean)
{
    EXPECT_TRUE(
        runOn({{"src/sim/x.cc",
                "void a() { MutexLock l1(mu_a); MutexLock "
                "l2(mu_b); }\n"
                "void b() { MutexLock l1(mu_a); MutexLock "
                "l2(mu_b); }\n"}},
              "lock-order")
            .empty());
}

TEST(LockOrder, CycleThroughACallEdgeIsFound)
{
    const auto diags = runOn(
        {{"src/sim/x.cc",
          "void outer() { MutexLock l(mu_a); inner(); }\n"
          "void inner() { MutexLock l(mu_b); }\n"
          "void other() { MutexLock l(mu_b); grab(); }\n"
          "void grab() { MutexLock l(mu_a); }\n"}},
        "lock-order");
    ASSERT_EQ(diags.size(), 1u);
}

TEST(LockOrder, AmbiguousReceiverCallsCreateNoPhantomEdges)
{
    // Regression for the MemoCache false positive: doc.find() must
    // not resolve to MemoCache::find just because the names match
    // when another find exists.
    const std::vector<std::pair<std::string, std::string>> srcs = {
        {"src/sim/cache.cc",
         "void MemoCache::load()\n"
         "{\n"
         "    MutexLock lock(mu_);\n"
         "    doc.find(\"rows\");\n"
         "}\n"
         "void MemoCache::find()\n"
         "{\n"
         "    MutexLock lock(mu_);\n"
         "}\n"},
        {"src/support/json.cc", "void Json::find() {}\n"}};
    EXPECT_TRUE(runOn(srcs, "lock-order").empty());
}

TEST(LockOrder, SelfDeadlockThroughImplicitThisIsFound)
{
    // An unqualified call binds within the caller's class, so
    // re-acquiring the same member mutex is caught.
    const auto diags = runOn(
        {{"src/sim/cache.cc",
          "void MemoCache::load()\n"
          "{\n"
          "    MutexLock lock(mu_);\n"
          "    helper();\n"
          "}\n"
          "void MemoCache::helper()\n"
          "{\n"
          "    MutexLock lock(mu_);\n"
          "}\n"}},
        "lock-order");
    ASSERT_EQ(diags.size(), 1u);
}

// --- error-discipline -------------------------------------------------

TEST(ErrorDiscipline, DiscardedBoolVerifyIsFlagged)
{
    const auto diags = runOn(
        {{"src/tree/x.cc",
          "bool verifyChunk(int c) { return c == 0; }\n"
          "void f() { verifyChunk(3); }\n"}},
        "error-discipline");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
}

TEST(ErrorDiscipline, ConsumedResultsAreClean)
{
    EXPECT_TRUE(runOn({{"src/tree/x.cc",
                        "bool verifyChunk(int c) { return c == 0; }\n"
                        "void f() { if (!verifyChunk(3)) panic(); }\n"
                        "bool g() { return verifyChunk(4); }\n"}},
                      "error-discipline")
                    .empty());
}

TEST(ErrorDiscipline, BareVerifyWithoutDefinitionStillCounts)
{
    const auto diags =
        runOn({{"src/tree/x.cc",
                "void f(int c, Image &img) { verify(c, img); }\n"}},
              "error-discipline");
    ASSERT_EQ(diags.size(), 1u);
}

TEST(ErrorDiscipline, VoidHelpersAndOtherNamesAreExempt)
{
    EXPECT_TRUE(runOn({{"src/tree/x.cc",
                        "void verifySlow(int c) {}\n"
                        "bool computeBit(int c) { return c & 1; }\n"
                        "void f()\n"
                        "{\n"
                        "    verifySlow(3);\n"
                        "    computeBit(4);\n"
                        "}\n"}},
                      "error-discipline")
                    .empty());
}

TEST(ErrorDiscipline, AllowDirectiveSuppresses)
{
    EXPECT_TRUE(
        runOn({{"src/tree/x.cc",
                "bool saveRoots(int c) { return true; }\n"
                "void f()\n"
                "{\n"
                "    // cmt-analyze: allow(error-discipline)\n"
                "    saveRoots(3);\n"
                "}\n"}},
              "error-discipline")
            .empty());
}

// --- include-hygiene --------------------------------------------------

TEST(IncludeHygiene, UnusedAndTransitiveIncludesAreFlagged)
{
    const std::vector<std::pair<std::string, std::string>> srcs = {
        {"src/a.h", "struct TypeA { int a; };\n"},
        {"src/b.h", "#include \"a.h\"\nstruct TypeB { TypeA x; };\n"},
        {"src/u.h", "struct TypeU { int u; };\n"},
        {"src/main.cc",
         "#include \"b.h\"\n"
         "#include \"u.h\"\n"
         "TypeA f(TypeB b) { return b.x; }\n"}};
    const auto diags = runOn(srcs, "include-hygiene");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_NE(diags[0].message.find("\"u.h\" is unused"),
              std::string::npos);
    EXPECT_NE(diags[1].message.find("'TypeA'"), std::string::npos);
}

TEST(IncludeHygiene, DirectIncludesAndSelfHeaderAreClean)
{
    EXPECT_TRUE(
        runOn({{"src/a.h", "struct TypeA { int a; };\n"},
               {"src/b.h",
                "#include \"a.h\"\nstruct TypeB { TypeA x; };\n"},
               {"src/b.cc",
                "#include \"b.h\"\nint g(TypeB b) { return 0; }\n"}},
              "include-hygiene")
            .empty());
}

TEST(IncludeHygiene, LocalForwardDeclarationSatisfiesUse)
{
    EXPECT_TRUE(runOn({{"src/a.h", "struct TypeA { int a; };\n"},
                       {"src/b.h",
                        "#include \"a.h\"\n"
                        "struct TypeB { TypeA inner; };\n"},
                       {"src/main.cc",
                        "#include \"b.h\"\n"
                        "struct TypeA;\n"
                        "TypeA *f(TypeB *b);\n"}},
                      "include-hygiene")
                    .empty());
}

TEST(IncludeHygiene, AllowDirectiveOnTheIncludeLineSuppresses)
{
    EXPECT_TRUE(
        runOn({{"src/u.h", "struct TypeU { int u; };\n"},
               {"src/main.cc",
                "// re-exported for downstream users\n"
                "// cmt-analyze: allow(include-hygiene)\n"
                "#include \"u.h\"\n"
                "int f();\n"}},
              "include-hygiene")
            .empty());
}

// --- engine + committed fixture trees ---------------------------------

std::string
fixtureDir(const std::string &leaf)
{
    return std::string(CMT_ANALYZE_FIXTURES_DIR) + "/analyze/" + leaf;
}

std::size_t
countRule(const std::vector<Diagnostic> &diags,
          const std::string &rule)
{
    return static_cast<std::size_t>(std::count_if(
        diags.begin(), diags.end(), [&](const Diagnostic &d) {
            return d.rule == rule;
        }));
}

TEST(AnalyzeTree, GoodFixtureTreeIsClean)
{
    AnalyzeOptions opt;
    opt.root = fixtureDir("good");
    const AnalyzeReport report = analyzeTree(opt);
    EXPECT_GT(report.filesChecked, 0u);
    for (const Diagnostic &d : report.diagnostics)
        ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule
                      << "] " << d.message;
}

TEST(AnalyzeTree, EachBadFixtureFiresExactlyItsRule)
{
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"bad/trust_boundary", "trust-boundary"},
        {"bad/lock_order", "lock-order"},
        {"bad/error_discipline", "error-discipline"},
        {"bad/include_hygiene", "include-hygiene"}};
    for (const auto &[leaf, rule] : cases) {
        AnalyzeOptions opt;
        opt.root = fixtureDir(leaf);
        const AnalyzeReport report = analyzeTree(opt);
        EXPECT_GT(countRule(report.diagnostics, rule), 0u)
            << leaf << " never fired " << rule;
        for (const std::string &other : ruleNames())
            if (other != rule) {
                EXPECT_EQ(countRule(report.diagnostics, other), 0u)
                    << leaf << " leaked rule " << other;
            }
    }
}

TEST(AnalyzeTree, RuleFilterRestrictsThePasses)
{
    AnalyzeOptions opt;
    opt.root = fixtureDir("bad/trust_boundary");
    opt.rules = {"lock-order"};
    EXPECT_TRUE(analyzeTree(opt).diagnostics.empty());

    // The filter covers the per-file rules too.
    opt.root = std::string(CMT_ANALYZE_FIXTURES_DIR) + "/bad";
    opt.rules = {"naked-new"};
    const AnalyzeReport report = analyzeTree(opt);
    EXPECT_GT(countRule(report.diagnostics, "naked-new"), 0u);
    EXPECT_EQ(countRule(report.diagnostics, "naked-new"),
              report.diagnostics.size());
}

// --- committed fixture tree -------------------------------------------

TEST(LintFixtures, BadTreeLightsUpEveryRule)
{
    AnalyzeOptions opt;
    opt.root = std::string(CMT_ANALYZE_FIXTURES_DIR) + "/bad";
    std::set<std::string> seen;
    for (const Diagnostic &d : analyzeTree(opt).diagnostics)
        seen.insert(d.rule);
    for (const char *rule :
         {"nondeterminism", "stdout-discipline", "naked-new",
          "header-guard", "catch-all", "root-registers",
          "seed-nondeterminism", "hot-path-alloc"})
        EXPECT_TRUE(seen.count(rule) == 1)
            << "fixture tree never fired rule: " << rule;
}

TEST(LintFixtures, GoodTreeIsClean)
{
    AnalyzeOptions opt;
    opt.root = std::string(CMT_ANALYZE_FIXTURES_DIR) + "/good";
    for (const Diagnostic &d : analyzeTree(opt).diagnostics)
        ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule
                      << "] " << d.message;
}

} // namespace
} // namespace cmt::analyze
