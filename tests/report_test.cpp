// The sweep report: every run is paired with the bound of the theorem
// that covers that run, the worst ratio per cell becomes the cell's
// row, and any covered run that failed, did not solve or went over its
// bound is a violation naming its cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "runner/report.h"
#include "runner/spec_io.h"

namespace ammb {
namespace {

using runner::RunRecord;
using runner::SweepSpec;

/// Grey fields re-generate per seed, so D (and with it the bound)
/// differs run to run inside one cell.  The Poisson cell's later
/// arrivals leave it outside every theorem.
const char* kSpec = R"({
  "name": "report-grid",
  "protocol": "bmmb",
  "topologies": [
    {"kind": "grey-field", "n": 24, "avg_degree": 6.0, "c": 1.5,
     "p_grey": 0.4}],
  "schedulers": ["adversarial"],
  "ks": [3],
  "macs": [{"name": "std", "fack": 32, "fprog": 4}],
  "workloads": [{"kind": "round-robin"}, {"kind": "poisson", "mean_gap": 8.0}],
  "seed_begin": 1,
  "seed_end": 5
})";

SweepSpec reportSpec() { return runner::buildSweep(runner::parseSpec(kSpec)); }

std::vector<RunRecord> runAll(const SweepSpec& spec) {
  runner::SweepRunner::Options options;
  options.threads = 2;
  return runner::SweepRunner(options).runPoints(spec,
                                                runner::enumerateRuns(spec));
}

/// The bound of one run, rebuilt independently of the report.
core::Bound boundOf(const SweepSpec& spec, const runner::RunPoint& p) {
  const auto topology = spec.topologies[p.topoIdx].make(p.seed);
  const auto arrivals =
      spec.workloads[p.wlIdx].make(spec.ks[p.kIdx], topology.n(), p.seed);
  const auto bound = core::applicableBound(
      topology, core::materializeWorkload(*arrivals),
      runner::runConfigFor(spec, p),
      runner::protocolSpecFor(spec, topology.n(), spec.ks[p.kIdx]));
  EXPECT_TRUE(bound.has_value());
  return bound.value_or(core::Bound{});
}

TEST(Report, EachCellShowsItsWorstRunAgainstThatRunsOwnBound) {
  const SweepSpec spec = reportSpec();
  const std::vector<RunRecord> records = runAll(spec);
  const runner::Report report = runner::buildReport(spec, records);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.boundedRuns, 4u);
  EXPECT_TRUE(report.violations.empty());

  double worstRatio = 0.0;
  std::size_t worstRun = 0;
  for (const RunRecord& record : records) {
    if (record.point.cellIndex != 0) continue;
    ASSERT_TRUE(record.result.solved);
    const core::Bound bound = boundOf(spec, record.point);
    const double ratio = static_cast<double>(record.result.solveTime) /
                         static_cast<double>(bound.ticks);
    if (ratio > worstRatio) {
      worstRatio = ratio;
      worstRun = record.point.runIndex;
    }
  }
  ASSERT_TRUE(report.rows[0].has_value());
  const runner::BoundedRun& worst = *report.rows[0];
  EXPECT_EQ(worst.runIndex, worstRun);
  EXPECT_DOUBLE_EQ(worst.ratio(), worstRatio);
  EXPECT_EQ(worst.bound.ticks,
            boundOf(spec, runner::runPointFor(spec, worstRun)).ticks);
  EXPECT_FALSE(report.rows[1].has_value());
}

TEST(Report, MarkdownHasOneRowPerCellInGridOrder) {
  const SweepSpec spec = reportSpec();
  const runner::Report report = runner::buildReport(spec, runAll(spec));
  std::istringstream markdown(runner::reportMarkdown(spec, report));
  std::vector<std::string> lines;
  for (std::string line; std::getline(markdown, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("| cell | topology | scheduler | k |", 0), 0u);
  EXPECT_EQ(lines[2].rfind("| 0 | greyfield24 | adversarial | 3 | std | "
                           "round-robin | static | none | 3.",
                           0),
            0u)
      << lines[2];
  EXPECT_EQ(lines[3],
            "| 1 | greyfield24 | adversarial | 3 | std | poisson-8 | static | "
            "none | — | — | — | — | — | — |");
}

TEST(Report, CoveredRunsThatMissTheirBoundAreViolationsNamingTheCell) {
  const SweepSpec spec = reportSpec();
  std::vector<RunRecord> records = runAll(spec);
  const auto recordOf = [&](std::size_t run) -> RunRecord& {
    return *std::find_if(records.begin(), records.end(),
                         [run](const RunRecord& r) {
                           return r.point.runIndex == run;
                         });
  };
  // Runs 0-3 are the covered round-robin cell; 4-7 the Poisson cell.
  recordOf(1).result.solveTime = boundOf(spec, recordOf(1).point).ticks + 1;
  recordOf(2).result.solved = false;
  recordOf(3).error = "boom";
  recordOf(5).result.solved = false;  // no theorem, so no violation

  const runner::Report report = runner::buildReport(spec, records);
  ASSERT_EQ(report.violations.size(), 3u);
  const std::string cell =
      "cell 0 (topology=greyfield24 scheduler=adversarial k=3 mac=std "
      "workload=round-robin dynamics=static reaction=none) run ";
  EXPECT_EQ(report.violations[0].rfind(cell + "1 seed 2: solve ", 0), 0u)
      << report.violations[0];
  EXPECT_NE(report.violations[1].find("run 2 seed 3: did not solve"),
            std::string::npos);
  EXPECT_NE(report.violations[2].find("run 3 seed 4: failed"),
            std::string::npos);
  ASSERT_TRUE(report.rows[0].has_value());
  EXPECT_EQ(report.rows[0]->runIndex, 2u);  // earliest infinite ratio
}

TEST(Report, ZeroBoundMetAtTimeZeroReadsOne) {
  // One node: D = 0 and k = 1 make Theorem 3.16's bound 0 ticks.
  const SweepSpec spec = runner::buildSweep(runner::parseSpec(R"({
    "name": "one-node", "protocol": "bmmb",
    "topologies": [{"kind": "line", "n": 1}], "schedulers": ["fast"],
    "ks": [1], "macs": [{"name": "std", "fack": 32, "fprog": 4}],
    "workloads": [{"kind": "all-at-node", "node": 0}],
    "seed_begin": 1, "seed_end": 2})"));
  const runner::Report report = runner::buildReport(spec, runAll(spec));
  ASSERT_TRUE(report.rows[0].has_value());
  EXPECT_EQ(report.rows[0]->bound.ticks, 0);
  EXPECT_EQ(report.rows[0]->ratio(), 1.0);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_NE(runner::reportMarkdown(spec, report).find("| 0 | 0 | 1.000 |"),
            std::string::npos);
}

}  // namespace
}  // namespace ammb
