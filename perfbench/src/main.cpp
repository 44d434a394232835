// ammb_perf — the benchmark's self-timed sampler.  perfbench/run.py
// builds it and runs one fresh process per sample:
//
//   ammb_perf selftest
//   ammb_perf sample --workload NAME --seed N --tmp-dir DIR
//                    --spec-dir DIR [--traced]
//
// A sample runs its workload once and prints one JSON line: host
// timings, peak RSS, the simulated-output fingerprint, correctness
// findings and, when traced, the per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/error.h"
#include "runner/json.h"
#include "workloads.h"

namespace {

std::string g_tmpDir;
int g_spoolFiles = 0;

}  // namespace

// sim::SpoolTraceSink spools to std::tmpfile(), which glibc always
// creates in /tmp.  The benchmark writes only inside its own checkout,
// so this binary supplies tmpfile() itself: the same anonymous,
// already-unlinked file, created under --tmp-dir instead.
extern "C" std::FILE* tmpfile() {
  if (g_tmpDir.empty()) return nullptr;
  std::string path = g_tmpDir + "/spool-XXXXXX";
  const int fd = mkstemp(path.data());
  if (fd < 0) return nullptr;
  unlink(path.c_str());
  std::FILE* file = fdopen(fd, "w+b");
  if (file == nullptr) {
    close(fd);
    return nullptr;
  }
  ++g_spoolFiles;
  return file;
}

namespace perfbench {

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

namespace {

namespace json = ammb::runner::json;

int usage() {
  std::fprintf(stderr,
               "usage: ammb_perf selftest\n"
               "       ammb_perf sample --workload NAME --seed N "
               "--tmp-dir DIR --spec-dir DIR [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "selftest") {
    return runSelfTest() == 0 ? 0 : 1;
  }
  if (argc < 2 || std::string(argv[1]) != "sample") return usage();
  std::string workload;
  std::string seedText;
  std::string specDir;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      traced = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seedText = value;
    } else if (flag == "--tmp-dir") {
      g_tmpDir = value;
    } else if (flag == "--spec-dir") {
      specDir = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || seedText.empty()) return usage();

  try {
    const std::uint64_t seed = std::stoull(seedText);
    Sample sample;
    if (isEngineWorkload(workload)) {
      sample = runEngineWorkload(workload, seed, traced);
    } else if (workload == "sweep-grid") {
      sample = runSweepWorkload(specDir, seed, traced);
    } else {
      throw ammb::Error("unknown workload '" + workload + "'");
    }
    json::Array problems;
    for (std::string& problem : sample.problems) {
      problems.emplace_back(std::move(problem));
    }
    json::Object out;
    out.emplace_back("workload", workload);
    out.emplace_back("seed", seed);
    out.emplace_back("traced", traced);
    out.emplace_back("setup_s", sample.setupS);
    out.emplace_back("run_s", sample.runS);
    out.emplace_back("cell_ms", sample.cellMs);
    out.emplace_back("rcvs", sample.rcvs);
    out.emplace_back("peak_rss_mb", peakRssMb());
    out.emplace_back("spool_files", g_spoolFiles);
    out.emplace_back("fingerprint", sample.fingerprint);
    out.emplace_back("problems", std::move(problems));
    out.emplace_back("layers", std::move(sample.layers));
    out.emplace_back("info", std::move(sample.info));
    std::printf("%s\n", json::dump(out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ammb_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
