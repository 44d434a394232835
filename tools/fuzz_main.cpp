// ammb_fuzz — the fuzz campaign / golden snapshot driver.
//
//   ammb_fuzz [--iterations N] [--seed S]
//             [--mutation none|late-ack|off-gprime|stale-topology|
//                         drop-on-recovery]
//             [--max-n N] [--bmmb-only] [--json PATH]
//             [--golden-dir DIR] [--update-golden] [--check-golden]
//
// Default: run an honest fuzz campaign and exit non-zero iff any oracle
// reported a violation (printing every shrunk counterexample).  With a
// mutation, the exit logic flips: the run fails iff the oracles did
// NOT catch the broken scheduler.  --json writes a BENCH_fuzz.json
// summary (executions, violations, coverage, and every case's trace
// hash) that `ammb_sweep compare --ignore-key wall_seconds` gates
// against sweeps/baselines/BENCH_fuzz.json; the golden flags
// regenerate or verify the canonical snapshot suite.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "check/fuzzer.h"
#include "check/golden.h"
#include "tools/cli.h"

namespace {

using namespace ammb;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--iterations N] [--seed S] [--mutation NAME] [--max-n N]\n"
               "       [--bmmb-only] [--json PATH] [--golden-dir DIR]\n"
               "       [--update-golden] [--check-golden]\n";
  return 2;
}

void writeJsonSummary(const std::string& path, const check::FuzzSpec& spec,
                      const check::FuzzResult& result, double wallSeconds) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n"
      << "  \"bench\": \"fuzz\",\n"
      << "  \"master_seed\": " << spec.masterSeed << ",\n"
      << "  \"mutation\": \"" << toString(spec.mutation) << "\",\n"
      << "  \"executions\": " << result.executions << ",\n"
      << "  \"violations\": " << result.violations << ",\n"
      << "  \"counterexamples\": " << result.counterexamples.size() << ",\n"
      << "  \"wall_seconds\": " << wallSeconds << ",\n"
      << "  \"coverage\": {";
  bool first = true;
  for (const auto& [label, count] : result.coverage) {
    out << (first ? "\n" : ",\n") << "    \"" << label << "\": " << count;
    first = false;
  }
  out << "\n  },\n"
      << "  \"cases\": [";
  // Per-case provenance and outcome.  sampleCase is a pure function of
  // (spec, iteration), so the labels are exactly the rotation the
  // campaign ran; the trace hash pins what each case executed.  It is a
  // hex string because a JSON number loses the bits above 2^53.
  for (int i = 0; i < spec.iterations; ++i) {
    const check::FuzzCase c = check::sampleCase(spec, i);
    char hash[20];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      result.traceHashes[static_cast<std::size_t>(i)]));
    out << (i == 0 ? "\n" : ",\n") << "    {\"iteration\": " << i
        << ", \"protocol\": \"" << core::toString(c.protocol)
        << "\", \"mac\": \"" << c.realization.label()
        << "\", \"trace_hash\": \"0x" << hash << "\"}";
  }
  out << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Regenerates or verifies the canonical snapshot suite.
int runGoldens(const std::string& dir, bool update) {
  check::GoldenStore store(dir);
  int failures = 0;
  for (const check::GoldenCase& gc : check::goldenCaseSuite()) {
    const check::ExecutionOutcome outcome =
        check::runCase(gc.fuzzCase, check::SchedulerMutation::kNone,
                       /*keepCanonicalTrace=*/true);
    if (!outcome.error.empty()) {
      std::cerr << gc.name << ": run threw: " << outcome.error << "\n";
      ++failures;
      continue;
    }
    if (!outcome.report.ok) {
      std::cerr << gc.name << ": oracle violation: "
                << outcome.report.summary() << "\n";
      ++failures;
      continue;
    }
    const std::string document = check::goldenDocument(gc, outcome);
    const auto comparison = store.check(gc.name, document, update);
    if (comparison.ok()) {
      std::cout << gc.name << ": "
                << (update ? comparison.message : "match") << "\n";
    } else {
      std::cerr << gc.name << ": " << comparison.message << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzSpec spec;
  std::string jsonPath;
  std::string goldenDir;

  tools::Args args;
  try {
    args = tools::Args::parse(
        argc, argv, 1,
        {"--iterations", "--seed", "--mutation", "--max-n", "--json",
         "--golden-dir"},
        {"--bmmb-only", "--update-golden", "--check-golden"});
    if (!args.positional.empty()) return usage(argv[0]);
    if (const std::string* v = args.flag("--iterations")) {
      spec.iterations = tools::parseIntFlag("--iterations", *v);
    }
    if (const std::string* v = args.flag("--seed")) {
      spec.masterSeed = tools::parseU64Flag("--seed", *v);
    }
    if (const std::string* v = args.flag("--mutation")) {
      spec.mutation = check::mutationFromString(*v);
    }
    if (const std::string* v = args.flag("--max-n")) {
      spec.maxN = static_cast<NodeId>(tools::parseIntFlag("--max-n", *v));
    }
    if (args.has("--bmmb-only")) {
      spec.protocols = {core::ProtocolKind::kBmmb};
    }
    if (const std::string* v = args.flag("--json")) jsonPath = *v;
    if (const std::string* v = args.flag("--golden-dir")) goldenDir = *v;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }

  if (args.has("--update-golden") || args.has("--check-golden")) {
    if (goldenDir.empty()) {
      std::cerr << "golden modes need --golden-dir\n";
      return usage(argv[0]);
    }
    return runGoldens(goldenDir, args.has("--update-golden"));
  }

  const auto started = std::chrono::steady_clock::now();
  const check::FuzzResult result = check::runFuzz(spec);
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  std::cout << "fuzz: " << result.executions << " executions, "
            << result.violations << " violations ("
            << toString(spec.mutation) << " mutation) in " << wallSeconds
            << "s\n";
  for (const auto& [label, count] : result.coverage) {
    std::cout << "  " << label << ": " << count << "\n";
  }
  for (const check::Counterexample& ce : result.counterexamples) {
    std::cout << ce.describe();
  }
  if (!jsonPath.empty()) {
    writeJsonSummary(jsonPath, spec, result, wallSeconds);
  }

  if (spec.mutation == check::SchedulerMutation::kNone) {
    return result.ok() ? 0 : 1;
  }
  // Mutation campaigns are negative tests of the oracles themselves.
  if (result.violations == 0) {
    std::cerr << "mutation " << toString(spec.mutation)
              << " produced zero violations — the oracles missed it\n";
    return 1;
  }
  return 0;
}
