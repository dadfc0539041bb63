/**
 * @file
 * Regression-harness unit tests: synthetic baseline/current sweep
 * documents exercising every verdict path of compareSweeps() -
 * clean match, stat drift, config drift, missing/extra rows, error
 * flips, ignored wall-clock, and incomparable documents.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/regress.h"

namespace cmt
{
namespace
{

Json
makeRun(const std::string &label, double ipc, bool ok = true,
        double hostSeconds = 0.5)
{
    Json run = Json::object();
    run.set("label", label);
    run.set("ok", ok);
    run.set("memoized", false);
    if (!ok)
        run.set("error", "panic: injected");
    run.set("host_seconds", hostSeconds);
    Json config = Json::object();
    config.set("benchmark", label);
    config.set("seed", 1);
    run.set("config", std::move(config));
    Json result = Json::object();
    result.set("benchmark", label);
    result.set("scheme", "cached");
    result.set("ipc", ipc);
    result.set("cycles", 1'000'000);
    run.set("result", std::move(result));
    return run;
}

Json
makeSweep(std::vector<Json> runs, double scale = 0.02)
{
    Json doc = Json::object();
    doc.set("figure", "fig_test");
    doc.set("repro_scale", scale);
    doc.set("jobs", 4);
    Json arr = Json::array();
    for (Json &run : runs)
        arr.push(std::move(run));
    doc.set("runs", std::move(arr));
    return doc;
}

const RowVerdict &
findRow(const RegressReport &report, const std::string &label)
{
    for (const RowVerdict &row : report.rows)
        if (row.label == label)
            return row;
    static RowVerdict none;
    ADD_FAILURE() << "no verdict for " << label;
    return none;
}

TEST(Regress, IdenticalSweepsAreClean)
{
    const Json doc =
        makeSweep({makeRun("gcc", 0.5), makeRun("swim", 0.25)});
    const RegressReport report = compareSweeps(doc, doc);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.figure, "fig_test");
    EXPECT_EQ(report.matched, 2u);
    EXPECT_EQ(report.drifted + report.missing + report.extra, 0u);
}

TEST(Regress, DifferentJobsAndHostSecondsStillClean)
{
    // Worker count and wall-clock are execution details, not results.
    Json baseline =
        makeSweep({makeRun("gcc", 0.5, true, 2.0)});
    baseline.set("jobs", 2);
    Json current = makeSweep({makeRun("gcc", 0.5, true, 0.01)});
    current.set("jobs", 16);
    EXPECT_TRUE(compareSweeps(baseline, current).clean());
}

TEST(Regress, StatDriftIsDetectedWithRatio)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5)});
    const Json current = makeSweep({makeRun("gcc", 0.625)});
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.drifted, 1u);
    const RowVerdict &row = findRow(report, "gcc");
    EXPECT_EQ(row.status, RowStatus::kDrift);
    ASSERT_EQ(row.deltas.size(), 1u);
    EXPECT_EQ(row.deltas[0].stat, "ipc");
    EXPECT_EQ(row.deltas[0].baseline, "0.5");
    EXPECT_EQ(row.deltas[0].current, "0.625");
    ASSERT_TRUE(row.deltas[0].hasRatio);
    EXPECT_EQ(row.deltas[0].ratio, 1.25);
}

TEST(Regress, NewAndVanishedResultFieldsAreDrift)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5)});
    Json changed = makeRun("gcc", 0.5);
    Json result = changed.at("result");
    result.set("new_stat", 7);
    changed.set("result", std::move(result));
    const Json current = makeSweep({std::move(changed)});
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    const RowVerdict &row = findRow(report, "gcc");
    ASSERT_EQ(row.deltas.size(), 1u);
    EXPECT_EQ(row.deltas[0].stat, "new_stat");
    EXPECT_EQ(row.deltas[0].baseline, "-");
    EXPECT_EQ(row.deltas[0].current, "7");
}

TEST(Regress, ConfigDriftIsDetected)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5)});
    Json changed = makeRun("gcc", 0.5);
    Json config = changed.at("config");
    config.set("seed", 2);
    changed.set("config", std::move(config));
    const Json current = makeSweep({std::move(changed)});
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    const RowVerdict &row = findRow(report, "gcc");
    EXPECT_EQ(row.status, RowStatus::kDrift);
    ASSERT_EQ(row.deltas.size(), 1u);
    EXPECT_EQ(row.deltas[0].stat, "config");
}

TEST(Regress, MissingAndExtraRows)
{
    const Json baseline =
        makeSweep({makeRun("gcc", 0.5), makeRun("swim", 0.25)});
    const Json current =
        makeSweep({makeRun("gcc", 0.5), makeRun("vpr", 0.75)});
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.matched, 1u);
    EXPECT_EQ(report.missing, 1u);
    EXPECT_EQ(report.extra, 1u);
    EXPECT_EQ(findRow(report, "swim").status, RowStatus::kMissing);
    EXPECT_EQ(findRow(report, "vpr").status, RowStatus::kExtra);
}

TEST(Regress, RepeatedLabelsPairInOrder)
{
    const Json baseline =
        makeSweep({makeRun("dup", 0.5), makeRun("dup", 0.25)});
    const Json current =
        makeSweep({makeRun("dup", 0.5), makeRun("dup", 0.25)});
    EXPECT_TRUE(compareSweeps(baseline, current).clean());

    const Json swapped =
        makeSweep({makeRun("dup", 0.25), makeRun("dup", 0.5)});
    EXPECT_FALSE(compareSweeps(baseline, swapped).clean());
}

TEST(Regress, ErrorFlagFlipIsMismatch)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5, true)});
    const Json current = makeSweep({makeRun("gcc", 0, false)});
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(findRow(report, "gcc").status,
              RowStatus::kErrorMismatch);
    // And the symmetric direction: a fixed failure is also a change.
    EXPECT_FALSE(compareSweeps(current, baseline).clean());
}

TEST(Regress, MatchingErrorRowsCompareByMessage)
{
    const Json both = makeSweep({makeRun("gcc", 0, false)});
    EXPECT_TRUE(compareSweeps(both, both).clean());

    Json other = makeRun("gcc", 0, false);
    other.set("error", "panic: different cycle");
    const Json current = makeSweep({std::move(other)});
    const RegressReport report = compareSweeps(both, current);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(findRow(report, "gcc").deltas.size(), 1u);
    EXPECT_EQ(findRow(report, "gcc").deltas[0].stat, "error");
}

TEST(Regress, HostSecondsNeverDrift)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5, true, 1.0)});
    const Json slower = makeSweep({makeRun("gcc", 0.5, true, 2.5)});

    // Wall-clock is environment noise: a host_seconds change alone,
    // in either direction, keeps the report clean and the row a
    // delta-free match.
    for (const RegressReport &report : {compareSweeps(baseline, slower),
                                        compareSweeps(slower, baseline)}) {
        EXPECT_TRUE(report.clean());
        EXPECT_EQ(findRow(report, "gcc").status, RowStatus::kMatch);
        EXPECT_TRUE(findRow(report, "gcc").deltas.empty());
    }
}

TEST(Regress, FigureMismatchIsIncomparable)
{
    Json baseline = makeSweep({makeRun("gcc", 0.5)});
    Json current = makeSweep({makeRun("gcc", 0.5)});
    current.set("figure", "fig_other");
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.docError.empty());
    EXPECT_TRUE(report.rows.empty());
}

TEST(Regress, ReproScaleMismatchIsIncomparable)
{
    const Json baseline = makeSweep({makeRun("gcc", 0.5)}, 0.02);
    const Json current = makeSweep({makeRun("gcc", 0.5)}, 1.0);
    const RegressReport report = compareSweeps(baseline, current);
    EXPECT_FALSE(report.clean());
    EXPECT_NE(report.docError.find("repro_scale"), std::string::npos);
}

TEST(Regress, MalformedDocumentsAreIncomparableNotFatal)
{
    const Json good = makeSweep({makeRun("gcc", 0.5)});
    EXPECT_FALSE(compareSweeps(Json("just a string"), good).clean());
    EXPECT_FALSE(compareSweeps(good, Json(42)).clean());
    Json noRuns = Json::object();
    noRuns.set("figure", "fig_test");
    EXPECT_FALSE(compareSweeps(noRuns, good).clean());
}

TEST(Regress, ReportPrintsRatioTableAndSummary)
{
    const Json baseline = makeSweep(
        {makeRun("gcc", 0.5), makeRun("swim", 0.25)});
    const Json current = makeSweep(
        {makeRun("gcc", 0.75), makeRun("swim", 0.25)});
    const RegressReport report = compareSweeps(baseline, current);

    std::ostringstream os;
    printReport(os, report);
    const std::string text = os.str();
    EXPECT_NE(text.find("fig_test"), std::string::npos);
    EXPECT_NE(text.find("drift"), std::string::npos);
    EXPECT_NE(text.find("ipc"), std::string::npos);
    EXPECT_NE(text.find("1.5"), std::string::npos); // the ratio
    EXPECT_NE(text.find("FAIL"), std::string::npos);
    // Matched rows stay out of the table unless verbose.
    EXPECT_EQ(text.find("swim"), std::string::npos);

    std::ostringstream verbose;
    printReport(verbose, report, true);
    EXPECT_NE(verbose.str().find("swim"), std::string::npos);

    std::ostringstream ok;
    printReport(ok, compareSweeps(baseline, baseline));
    EXPECT_NE(ok.str().find("OK"), std::string::npos);
}

} // namespace
} // namespace cmt
