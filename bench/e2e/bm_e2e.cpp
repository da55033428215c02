/// \file bm_e2e.cpp
/// End-to-end benchmark of the ILT system (README.md in this directory).
///
///   bm_e2e --workload clip_cold --seed 1 --seconds 20 --trace 0
///   bm_e2e --workload chip_mix --seed 1 --trace 1 --spans chip.trace.json
///   bm_e2e --compare runs/parent runs/change     # directories of --json files
///   bm_e2e --smoke                               # every workload, smallest
///   bm_e2e --probe-capacity --seconds 20         # serve_open rate constant
///
/// One workload runs per process, so peak RSS and executor state belong
/// to it. The process sets up the library as mosaic_cli and mosaic_serve
/// do (--backend auto, a fixed executor size), prints every metric with
/// its unit, and ends with one JSON line: {"correct", "attempted",
/// "failed", "metrics"} holding the end-to-end metrics, or the per-layer
/// ones for --trace 1. The exit code is 1 when an output check fails.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "ledger.hpp"
#include "math/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/telemetry/json.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

#ifndef MOSAIC_E2E_BUILD_TYPE
#define MOSAIC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mosaic;
using namespace mosaic::e2e;
namespace fs = std::filesystem;

/// The apps' execution set-up: `--backend auto` and an explicit executor
/// size (this benchmark's fixed worker count).
void configureExecution() {
  exec::setCurrentBackend(*exec::findBackend("auto"));
  setParallelism(kWorkers);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  MOSAIC_CHECK(in.good(), "cannot read " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One metric declared in BENCHMARK.json.
struct SpecMetric {
  std::string name;
  std::string unit;
  bool lowerIsBetter = true;
  double bound = -1.0;  ///< < 0 for per-layer metrics (no bound)
};

struct Spec {
  std::vector<SpecMetric> endToEnd;
  std::vector<SpecMetric> perLayer;
};

Spec readSpec(const std::string& path) {
  const telemetry::JsonValue root = telemetry::JsonValue::parse(readFile(path));
  Spec spec;
  const auto read = [&](const char* key, std::vector<SpecMetric>* out) {
    const telemetry::JsonValue* list = root.find(key);
    MOSAIC_CHECK(list != nullptr && list->isArray(),
                 path << " has no " << key << " list");
    for (const telemetry::JsonValue& m : list->asArray()) {
      out->push_back({m.stringOr("name", ""), m.stringOr("unit", ""),
                      m.stringOr("better", "lower") == "lower",
                      m.numberOr("bound", -1.0)});
    }
  };
  read("end_to_end", &spec.endToEnd);
  read("per_layer", &spec.perLayer);
  return spec;
}

std::string metricsJson(const Report& report) {
  telemetry::JsonObject metrics;
  for (const Metric& m : report.metrics()) {
    telemetry::JsonObject value;
    value.set("value", m.value);
    value.set("unit", m.unit);
    metrics.setRaw(m.name, value.str());
  }
  return metrics.str();
}

/// Joins already-rendered JSON values into an array.
std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  return out + "]";
}

void printReport(const char* title, const Report& report) {
  if (report.metrics().empty()) return;
  std::vector<Metric> sorted = report.metrics();
  std::sort(sorted.begin(), sorted.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  TextTable table;
  table.setHeader({"metric", "value", "unit"});
  for (const Metric& m : sorted) {
    table.addRow({m.name, TextTable::num(m.value, 4), m.unit});
  }
  std::printf("== %s ==\n%s", title, table.render().c_str());
}

struct Metadata {
  unsigned hardwareThreads = std::thread::hardware_concurrency();
  std::string backend = exec::currentBackend().name();
  bool avx2 = exec::cpuHasAvx2();
  std::string buildType = MOSAIC_E2E_BUILD_TYPE;
};

int runOne(const RunOptions& opt, const std::string& jsonPath,
           const std::string& spansPath) {
  configureExecution();
  const Metadata meta;
  std::printf("== bm_e2e %s: seed %llu, %.0f s, trace %d | %u hardware "
              "threads, %d workers, backend %s (avx2 %s), %s build ==\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, meta.hardwareThreads, kWorkers,
              meta.backend.c_str(), meta.avx2 ? "yes" : "no",
              meta.buildType.c_str());
  std::fflush(stdout);

  Tracer tracer(opt.trace);
  const RunResult res = runWorkload(opt, tracer);
  const bool correct = res.checkFailures.empty();
  for (const std::string& failure : res.checkFailures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %s (%lld attempted, %lld failed)\n",
              correct ? "all passed" : "FAILED", res.attempted, res.failed);
  const Report& headline = opt.trace ? res.layers : res.endToEnd;
  printReport(opt.trace ? "per-layer" : "end to end", headline);
  printReport("details", res.details);

  const auto setResult = [&](telemetry::JsonObject& obj) {
    obj.set("correct", correct);
    obj.set("attempted", res.attempted);
    obj.set("failed", res.failed);
    obj.setRaw("metrics", metricsJson(headline));
  };
  telemetry::JsonObject line;
  setResult(line);

  if (!jsonPath.empty()) {
    telemetry::JsonObject record;
    record.set("workload", opt.workload);
    record.set("seed", static_cast<unsigned long long>(opt.seed));
    record.set("seconds", opt.seconds);
    record.set("trace", opt.trace ? 1 : 0);
    setResult(record);
    record.setRaw("details", metricsJson(res.details));
    std::vector<std::string> checks;
    for (const std::string& failure : res.checkFailures) {
      checks.push_back("\"" + telemetry::jsonEscape(failure) + "\"");
    }
    record.setRaw("check_failures", jsonArray(checks));
    std::vector<std::string> samples;
    for (const double ms : res.latencyMs) {
      samples.push_back(telemetry::jsonNumber(ms));
    }
    record.setRaw("latency_ms", jsonArray(samples));
    telemetry::JsonObject m;
    m.set("hardware_threads", static_cast<int>(meta.hardwareThreads));
    m.set("workers", kWorkers);
    m.set("backend", meta.backend);
    m.set("avx2", meta.avx2);
    m.set("build_type", meta.buildType);
    record.setRaw("meta", m.str());
    std::ofstream out(jsonPath, std::ios::trunc);
    MOSAIC_CHECK(out.good(), "cannot open for writing: " << jsonPath);
    out << record.str() << "\n";
    MOSAIC_CHECK(out.good(), "write failed: " << jsonPath);
  }
  if (!spansPath.empty()) tracer.writeChromeTrace(spansPath);
  std::printf("%s\n", line.str().c_str());
  shutdownParallelPool();
  return correct ? 0 : 1;
}

/// Smallest size of every workload, traced, with all checks; fails unless
/// each metric BENCHMARK.json lists is reported with its declared unit.
int runSmoke(const std::string& specPath, const std::string& workDir) {
  configureExecution();
  const Spec spec = readSpec(specPath);
  bool ok = true;
  for (const std::string& name : workloadNames()) {
    RunOptions opt;
    opt.workload = name;
    opt.trace = true;
    opt.smoke = true;
    opt.workDir = workDir + "/" + name;
    Tracer tracer(true);
    WallTimer timer;
    const RunResult res = runWorkload(opt, tracer);
    std::vector<std::string> problems = res.checkFailures;
    const auto expect = [&](const std::vector<SpecMetric>& list,
                            const Report& report) {
      for (const SpecMetric& m : list) {
        const Metric* got = report.find(m.name);
        if (got == nullptr) {
          problems.push_back("missing metric " + m.name);
        } else if (got->unit != m.unit) {
          problems.push_back(m.name + " unit " + got->unit + " != " + m.unit);
        }
      }
    };
    expect(spec.endToEnd, res.endToEnd);
    expect(spec.perLayer, res.layers);
    std::printf("%-11s %5.1f s  %s\n", name.c_str(), timer.seconds(),
                problems.empty() ? "ok" : "FAILED");
    for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
    ok = ok && problems.empty();
  }
  shutdownParallelPool();
  return ok ? 0 : 1;
}

/// A set of runs: every --json record in one directory.
std::vector<telemetry::JsonValue> readRunSet(const std::string& dir) {
  std::vector<telemetry::JsonValue> runs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    runs.push_back(telemetry::JsonValue::parse(readFile(entry.path())));
  }
  MOSAIC_CHECK(!runs.empty(), "no run records (*.json) in " << dir);
  return runs;
}

std::vector<double> valuesOf(const std::vector<telemetry::JsonValue>& runs,
                             const std::string& workload, bool trace,
                             const std::string& metric) {
  std::vector<double> values;
  for (const telemetry::JsonValue& run : runs) {
    if (run.stringOr("workload", "") != workload ||
        (run.intOr("trace", 0) != 0) != trace) {
      continue;
    }
    const telemetry::JsonValue* metrics = run.find("metrics");
    const telemetry::JsonValue* m = metrics ? metrics->find(metric) : nullptr;
    if (m != nullptr) values.push_back(m->numberOr("value", 0.0));
  }
  // Sorted, so two sets compare equal whatever order their files list in.
  std::sort(values.begin(), values.end());
  return values;
}

/// Verdict of one end-to-end metric between a parent (a) and a change (b)
/// set of runs, by the rules of README.md: the medians must differ by more
/// than the bound, and a spread wider than the bound is unresolved unless
/// every run of one side beats every run of the other.
std::string verdict(const std::vector<double>& a, const std::vector<double>& b,
                    const SpecMetric& m, double worseShare, double spread) {
  const auto [aMin, aMax] = std::minmax_element(a.begin(), a.end());
  const auto [bMin, bMax] = std::minmax_element(b.begin(), b.end());
  const bool allBetter = m.lowerIsBetter ? *bMax < *aMin : *bMin > *aMax;
  const bool allWorse = m.lowerIsBetter ? *bMin > *aMax : *bMax < *aMin;
  if (spread > m.bound) {
    return allBetter ? "better" : allWorse ? "worse" : "unresolved";
  }
  if (worseShare > m.bound) return "worse";
  if (worseShare < -m.bound) return "better";
  return "same";
}

int runCompare(const std::string& specPath, const std::string& dirA,
               const std::string& dirB) {
  const Spec spec = readSpec(specPath);
  const std::vector<telemetry::JsonValue> a = readRunSet(dirA);
  const std::vector<telemetry::JsonValue> b = readRunSet(dirB);
  std::vector<std::string> workloads;
  for (const auto* set : {&a, &b}) {
    for (const telemetry::JsonValue& run : *set) {
      const std::string w = run.stringOr("workload", "");
      if (std::find(workloads.begin(), workloads.end(), w) == workloads.end()) {
        workloads.push_back(w);
      }
    }
  }
  TextTable table;
  table.setHeader({"workload", "metric", "n", "A median [q1, q3]",
                   "B median [q1, q3]", "delta", "bound", "verdict"});
  int worse = 0;
  const auto cell = [](const std::vector<double>& v) {
    double q1 = 0.0;
    double q3 = 0.0;
    quartiles(v, &q1, &q3);
    return TextTable::num(median(v), 4) + " [" + TextTable::num(q1, 4) +
           ", " + TextTable::num(q3, 4) + "]";
  };
  for (const std::string& w : workloads) {
    for (const bool trace : {false, true}) {
      for (const SpecMetric& m : trace ? spec.perLayer : spec.endToEnd) {
        const std::vector<double> va = valuesOf(a, w, trace, m.name);
        const std::vector<double> vb = valuesOf(b, w, trace, m.name);
        if (va.empty() || vb.empty()) continue;
        const double ma = median(va);
        const double mb = median(vb);
        const double delta = ma != 0.0 ? (mb - ma) / std::abs(ma) : 0.0;
        std::string result;
        if (trace) {
          // Per-layer metrics carry no bound; counts must match exactly.
          result = va == vb ? "identical" : "-";
        } else {
          double q1 = 0.0;
          double q3 = 0.0;
          quartiles(va, &q1, &q3);
          double spread = (q3 - q1) / std::abs(ma);
          quartiles(vb, &q1, &q3);
          spread = std::max(spread, (q3 - q1) / std::abs(mb));
          result = verdict(va, vb, m, m.lowerIsBetter ? delta : -delta,
                           spread);
          if (result == "worse") ++worse;
        }
        table.addRow({w, m.name,
                      std::to_string(va.size()) + "/" +
                          std::to_string(vb.size()),
                      cell(va), cell(vb), TextTable::num(100.0 * delta, 2) + "%",
                      trace ? "-" : TextTable::num(100.0 * m.bound, 1) + "%",
                      result});
      }
    }
  }
  std::printf("A = %s, B = %s\n%s", dirA.c_str(), dirB.c_str(),
              table.render().c_str());
  return worse == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string jsonPath;
  std::string spansPath;
  std::string workDir = "bm_e2e_work";
  std::string specPath = "BENCHMARK.json";
  bool smoke = false;
  bool probeCapacity = false;
  std::string logLevel = "warn";

  try {
    // --compare takes two positional directories; the rest is declarative.
    std::vector<const char*> args{argv[0]};
    std::vector<std::string> compareDirs;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--compare") {
        MOSAIC_CHECK(i + 2 < argc, "--compare needs two run directories");
        compareDirs = {argv[i + 1], argv[i + 2]};
        i += 2;
      } else {
        args.push_back(argv[i]);
      }
    }
    CliParser cli("bm_e2e", "end-to-end benchmark of the ILT system");
    cli.addString("workload", &workload,
                  "clip_cold | suite_warm | chip_mix | serve_open");
    cli.addInt("seed", &seed, "input seed (clips, chip, arrival schedule)");
    cli.addDouble("seconds", &seconds, "length of the measured loop");
    cli.addInt("trace", &trace,
               "1 = record spans and report the per-layer metrics");
    cli.addString("json", &jsonPath, "write the run record here");
    cli.addString("spans", &spansPath,
                  "write the recorded spans as a Chrome trace here");
    cli.addString("work-dir", &workDir, "scratch directory (removed after)");
    cli.addString("spec", &specPath,
                  "BENCHMARK.json (for --smoke and --compare)");
    cli.addFlag("smoke", &smoke, "run every workload at its smallest size");
    cli.addFlag("probe-capacity", &probeCapacity,
                "measure closed-loop serve capacity (jobs/s) and exit");
    cli.addString("log", &logLevel, "log level");
    if (!cli.parse(static_cast<int>(args.size()), args.data())) return 0;
    setLogLevel(parseLogLevel(logLevel));
    MOSAIC_CHECK(seed >= 0, "--seed must be >= 0");
    MOSAIC_CHECK(seconds >= 0.0, "--seconds must be >= 0");

    // Concurrent runs in one checkout must not share scratch space.
    workDir = (fs::path(workDir) / std::to_string(::getpid())).string();
    if (!compareDirs.empty()) {
      return runCompare(specPath, compareDirs[0], compareDirs[1]);
    }
    if (smoke) return runSmoke(specPath, workDir);
    if (probeCapacity) {
      configureExecution();
      const double capacity =
          probeServeCapacity(static_cast<std::uint64_t>(seed), seconds,
                             workDir);
      std::printf("serve capacity: %.3f jobs/s closed loop; 40%% = %.3f "
                  "jobs/s\n",
                  capacity, 0.4 * capacity);
      shutdownParallelPool();
      return 0;
    }
    const auto& names = workloadNames();
    MOSAIC_CHECK(std::find(names.begin(), names.end(), workload) != names.end(),
                 "--workload must be one of clip_cold, suite_warm, chip_mix, "
                 "serve_open");
    RunOptions opt;
    opt.workload = workload;
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = seconds;
    opt.trace = trace != 0;
    opt.workDir = workDir;
    return runOne(opt, jsonPath, spansPath);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_e2e: %s\n", e.what());
    return 1;
  }
}
