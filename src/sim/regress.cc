#include "sim/regress.h"

#include <set>

#include "support/json.h"
#include "support/table.h"

namespace cmt
{

namespace
{

/** Render a member for the report ("-" for an absent side). */
std::string
render(const Json *value)
{
    return value ? value->dump() : "-";
}

/**
 * Collect the differing fields of two result objects. Every member
 * of either side is compared exactly: the simulator is deterministic,
 * so any value change is a real behaviour change.
 */
void
diffResult(const Json *base, const Json *cur,
           std::vector<StatDelta> *out)
{
    std::set<std::string> keys;
    if (base && base->isObject())
        for (const auto &[key, value] : base->members())
            keys.insert(key);
    if (cur && cur->isObject())
        for (const auto &[key, value] : cur->members())
            keys.insert(key);
    for (const std::string &key : keys) {
        const Json *b = base ? base->find(key) : nullptr;
        const Json *c = cur ? cur->find(key) : nullptr;
        // dump() equality is exact: numbers serialize round-trippably
        // and object member order is insertion-stable.
        if (b && c && b->dump() == c->dump())
            continue;
        StatDelta delta;
        delta.stat = key;
        delta.baseline = render(b);
        delta.current = render(c);
        if (b && c && b->isNumber() && c->isNumber() &&
            b->asNumber() != 0) {
            delta.ratio = c->asNumber() / b->asNumber();
            delta.hasRatio = true;
        }
        out->push_back(std::move(delta));
    }
}

/** One sweep row (an element of the "runs" array) plus bookkeeping. */
struct IndexedRun
{
    const Json *run;
    bool claimed = false;
};

std::string
runLabel(const Json &run, std::size_t index)
{
    const Json *label = run.find("label");
    if (label && label->isString())
        return label->asString();
    return "#" + std::to_string(index);
}

} // namespace

const char *
rowStatusName(RowStatus status)
{
    switch (status) {
    case RowStatus::kMatch: return "match";
    case RowStatus::kDrift: return "drift";
    case RowStatus::kErrorMismatch: return "error-mismatch";
    case RowStatus::kMissing: return "missing";
    case RowStatus::kExtra: return "extra";
    }
    return "?";
}

RegressReport
compareSweeps(const Json &baseline, const Json &current)
{
    RegressReport report;

    const auto docCheck = [&](const Json &doc,
                              const char *who) -> const Json * {
        if (!doc.isObject()) {
            report.docError = std::string(who) + " is not an object";
            return nullptr;
        }
        const Json *runs = doc.find("runs");
        if (!runs || !runs->isArray()) {
            report.docError =
                std::string(who) + " has no \"runs\" array";
            return nullptr;
        }
        return runs;
    };
    const Json *baseRuns = docCheck(baseline, "baseline");
    if (!baseRuns)
        return report;
    const Json *curRuns = docCheck(current, "current");
    if (!curRuns)
        return report;

    const Json *figure = baseline.find("figure");
    if (figure && figure->isString())
        report.figure = figure->asString();
    const Json *curFigure = current.find("figure");
    if (figure && curFigure && figure->dump() != curFigure->dump()) {
        report.docError = "figure mismatch: baseline " +
                          figure->dump() + " vs current " +
                          curFigure->dump();
        return report;
    }
    // Different instruction windows mean a different experiment, not
    // a regression; refuse to produce misleading per-stat drift.
    const Json *baseScale = baseline.find("repro_scale");
    const Json *curScale = current.find("repro_scale");
    if (render(baseScale) != render(curScale)) {
        report.docError = "repro_scale mismatch: baseline " +
                          render(baseScale) + " vs current " +
                          render(curScale);
        return report;
    }

    std::vector<IndexedRun> curIndex;
    for (std::size_t i = 0; i < curRuns->size(); ++i)
        curIndex.push_back({&curRuns->at(i)});

    for (std::size_t i = 0; i < baseRuns->size(); ++i) {
        const Json &baseRun = baseRuns->at(i);
        const std::string label = runLabel(baseRun, i);

        RowVerdict verdict;
        verdict.label = label;

        // Pair with the first unclaimed current row of this label;
        // repeated labels pair in order.
        IndexedRun *pair = nullptr;
        for (std::size_t j = 0; j < curIndex.size(); ++j) {
            if (!curIndex[j].claimed &&
                runLabel(*curIndex[j].run, j) == label) {
                pair = &curIndex[j];
                break;
            }
        }
        if (!pair) {
            verdict.status = RowStatus::kMissing;
            ++report.missing;
            report.rows.push_back(std::move(verdict));
            continue;
        }
        pair->claimed = true;
        const Json &curRun = *pair->run;

        const Json *baseOk = baseRun.find("ok");
        const Json *curOk = curRun.find("ok");
        const bool bOk = baseOk && baseOk->isBool() && baseOk->asBool();
        const bool cOk = curOk && curOk->isBool() && curOk->asBool();
        if (bOk != cOk) {
            verdict.status = RowStatus::kErrorMismatch;
            StatDelta delta;
            delta.stat = "ok";
            delta.baseline = render(baseOk);
            delta.current = render(curOk);
            verdict.deltas.push_back(std::move(delta));
            ++report.drifted;
            report.rows.push_back(std::move(verdict));
            continue;
        }

        if (!bOk) {
            // Matching failures must fail identically.
            const Json *be = baseRun.find("error");
            const Json *ce = curRun.find("error");
            if (render(be) != render(ce)) {
                StatDelta delta;
                delta.stat = "error";
                delta.baseline = render(be);
                delta.current = render(ce);
                verdict.deltas.push_back(std::move(delta));
            }
        } else {
            diffResult(baseRun.find("result"), curRun.find("result"),
                       &verdict.deltas);
            // The config block documents what was simulated; a silent
            // config change would make stat equality meaningless.
            const Json *bc = baseRun.find("config");
            const Json *cc = curRun.find("config");
            if (render(bc) != render(cc)) {
                StatDelta delta;
                delta.stat = "config";
                delta.baseline = "(baseline config)";
                delta.current = "(differs)";
                verdict.deltas.push_back(std::move(delta));
            }
        }

        if (!verdict.deltas.empty()) {
            verdict.status = RowStatus::kDrift;
            ++report.drifted;
            report.rows.push_back(std::move(verdict));
            continue;
        }

        ++report.matched;
        report.rows.push_back(std::move(verdict));
    }

    for (std::size_t j = 0; j < curIndex.size(); ++j) {
        if (curIndex[j].claimed)
            continue;
        RowVerdict verdict;
        verdict.label = runLabel(*curIndex[j].run, j);
        verdict.status = RowStatus::kExtra;
        ++report.extra;
        report.rows.push_back(std::move(verdict));
    }

    return report;
}

void
printReport(std::ostream &os, const RegressReport &report,
            bool verbose)
{
    const std::string figure =
        report.figure.empty() ? "(unnamed sweep)" : report.figure;
    if (!report.docError.empty()) {
        os << figure << ": INCOMPARABLE - " << report.docError << "\n";
        return;
    }

    const std::size_t problems =
        report.drifted + report.missing + report.extra;
    if (problems > 0 || verbose) {
        Table t(figure + ": baseline vs current");
        t.header({"label", "status", "stat", "baseline", "current",
                  "ratio"});
        for (const RowVerdict &row : report.rows) {
            if (row.status == RowStatus::kMatch && !verbose)
                continue;
            if (row.deltas.empty()) {
                t.row({row.label, rowStatusName(row.status), "-", "-",
                       "-", "-"});
                continue;
            }
            for (const StatDelta &delta : row.deltas) {
                t.row({row.label, rowStatusName(row.status),
                       delta.stat, delta.baseline, delta.current,
                       delta.hasRatio ? Table::num(delta.ratio, 4)
                                      : "-"});
            }
        }
        t.print(os);
    }

    os << figure << ": " << (report.clean() ? "OK" : "FAIL") << " ("
       << report.matched << " matched, " << report.drifted
       << " drifted, " << report.missing << " missing, "
       << report.extra << " extra)\n";
}

} // namespace cmt
