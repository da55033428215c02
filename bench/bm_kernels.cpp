/// \file bm_kernels.cpp
/// Per-layer timing of the SOCS kernel build (docs/performance.md,
/// "Kernel construction"). For the clip lattice (1024 nm, n = 161, dense
/// Jacobi) and the chip-window lattice (2048 nm, n = 657, subspace
/// iteration), at focus 0 and 25, one computeKernelSet runs on the calling
/// thread and is split into its `litho.tcc.assemble` and `litho.tcc.eigen`
/// spans. Then a fresh simulator of each lattice times the concurrent
/// warmKernels({0, 25}): the clip's is what every cold run pays, the
/// window's what every cold `mosaic_cli chip` and the chip_mix set-up
/// pay. Each repeat runs every configuration once, in the same order, so
/// host drift lands on all of them alike; min and median over the repeats
/// are reported with a host fingerprint (CPU model, hardware threads, L3
/// size).
///
/// --json PATH --label NAME writes the run into PATH under NAME and keeps
/// the runs of other labels already there, so running the parent's build
/// and the change's build into one file records the pair.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/backend.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "support/telemetry/json.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/timer.hpp"

namespace {

using namespace mosaic;

struct Series {
  std::string layer;
  std::string lattice;
  int n = 0;
  std::string focus;  ///< "0", "25", or "0+25" for the concurrent build
  std::vector<double> ms;

  [[nodiscard]] double min() const {
    return *std::min_element(ms.begin(), ms.end());
  }
  [[nodiscard]] double median() const {
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t m = sorted.size() / 2;
    return sorted.size() % 2 ? sorted[m] : 0.5 * (sorted[m - 1] + sorted[m]);
  }
};

/// First line of `path`, or of the value after "key:" in it; "unknown"
/// when the file is absent (non-Linux hosts).
std::string readHostValue(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (key.empty()) return line;
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::string hostJson() {
  telemetry::JsonObject host;
  host.set("cpu_model", readHostValue("/proc/cpuinfo", "model name"));
  host.set("hardware_threads",
           static_cast<int>(std::thread::hardware_concurrency()));
  host.set("l3", readHostValue("/sys/devices/system/cpu/cpu0/cache/index3/size",
                               ""));
  host.set("avx2", exec::cpuHasAvx2());
  return host.str();
}

/// Runs already in `path` under another label, one rendered object each.
/// Runs are written one per line, so each parses on its own.
std::vector<std::string> otherRuns(const std::string& path,
                                   const std::string& label) {
  std::vector<std::string> kept;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    {", 0) != 0) continue;
    std::string run = line.substr(4);
    if (run.back() == ',') run.pop_back();
    if (telemetry::JsonValue::parse(run).stringOr("label", "") != label) {
      kept.push_back(run);
    }
  }
  return kept;
}

}  // namespace

int main(int argc, char** argv) {
  int repeats = 5;
  std::string jsonPath;
  std::string label = "run";

  CliParser cli("bm_kernels",
                "TCC assembly and eigensolve per focus, and the concurrent "
                "kernel warm-up of a cold clip and a cold chip window");
  cli.addInt("repeats", &repeats,
             "interleaved repeats of every configuration (min and median)");
  cli.addString("json", &jsonPath, "write the run into this JSON file");
  cli.addString("label", &label, "name of this run in the JSON file");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(repeats > 0, "repeats must be positive");
    setLogLevel(LogLevel::kWarn);

    struct Lattice {
      const char* name;
      OpticsConfig optics;
    };
    OpticsConfig clip;
    clip.clipSizeNm = 1024;
    clip.pixelNm = 8;
    OpticsConfig window;
    window.clipSizeNm = 2048;
    window.pixelNm = 16;
    const Lattice lattices[] = {{"clip", clip}, {"window", window}};
    const double foci[] = {0.0, 25.0};

    std::vector<Series> series;
    for (const Lattice& lat : lattices) {
      const int n = static_cast<int>(pupilLattice(lat.optics).size());
      for (const double f : foci) {
        const std::string focus = std::to_string(static_cast<int>(f));
        for (const char* layer : {"tcc_assemble", "eigen", "kernel_set"}) {
          series.push_back({layer, lat.name, n, focus, {}});
        }
      }
    }
    for (const Lattice& lat : lattices) {
      series.push_back({"warm_kernels", lat.name,
                        static_cast<int>(pupilLattice(lat.optics).size()),
                        "0+25", {}});
    }

    telemetry::Histogram& assemble =
        telemetry::metrics().histogram("litho.tcc.assemble");
    telemetry::Histogram& eigen =
        telemetry::metrics().histogram("litho.tcc.eigen");
    for (int r = 0; r < repeats; ++r) {
      std::size_t s = 0;
      for (const Lattice& lat : lattices) {
        for (const double f : foci) {
          assemble.reset();
          eigen.reset();
          WallTimer timer;
          (void)computeKernelSet(lat.optics, f);
          const double wallMs = timer.milliseconds();
          series[s++].ms.push_back(assemble.stats().sumUs / 1e3);
          series[s++].ms.push_back(eigen.stats().sumUs / 1e3);
          series[s++].ms.push_back(wallMs);
        }
      }
      for (const Lattice& lat : lattices) {
        const LithoSimulator sim(lat.optics);
        WallTimer timer;
        sim.warmKernels({0.0, 25.0});
        series[s++].ms.push_back(timer.milliseconds());
      }
      std::printf("repeat %d/%d done\n", r + 1, repeats);
      std::fflush(stdout);
    }

    TextTable table;
    table.setHeader({"layer", "lattice", "n", "focus", "min ms", "median ms"});
    for (const Series& row : series) {
      table.addRow({row.layer, row.lattice, std::to_string(row.n), row.focus,
                    TextTable::num(row.min(), 1),
                    TextTable::num(row.median(), 1)});
    }
    const std::string host = hostJson();
    std::printf("\n== bm_kernels: %d interleaved repeats, host %s ==\n%s",
                repeats, host.c_str(), table.render().c_str());

    if (!jsonPath.empty()) {
      std::vector<std::string> rows;
      for (const Series& row : series) {
        telemetry::JsonObject obj;
        obj.set("layer", row.layer);
        obj.set("lattice", row.lattice);
        obj.set("n", row.n);
        obj.set("focus_nm", row.focus);
        obj.set("min_ms", row.min());
        obj.set("median_ms", row.median());
        rows.push_back(obj.str());
      }
      std::string rowsJson = "[";
      for (const std::string& row : rows) {
        rowsJson += (rowsJson.size() > 1 ? "," : "") + row;
      }
      telemetry::JsonObject run;
      run.set("label", label);
      run.set("repeats", repeats);
      run.setRaw("host", host);
      run.setRaw("rows", rowsJson + "]");

      std::vector<std::string> runs = otherRuns(jsonPath, label);
      runs.push_back(run.str());
      std::ofstream out(jsonPath);
      out << "{\n  \"bench\": \"bm_kernels\",\n  \"runs\": [\n";
      for (std::size_t i = 0; i < runs.size(); ++i) {
        out << "    " << runs[i] << (i + 1 < runs.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
      MOSAIC_CHECK(out.good(), "cannot write " << jsonPath);
      std::printf("wrote run '%s' to %s\n", label.c_str(), jsonPath.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_kernels: %s\n", e.what());
    return 1;
  }
  return 0;
}
