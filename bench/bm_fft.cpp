/// \file bm_fft.cpp
/// FFT and SOCS engine benchmark (docs/performance.md). Two series, both
/// written to BENCH_fft.json:
///   rows      the 2-D forward+inverse pair on the complex path and on
///             the real-input/real-output path, across grid sizes and
///             thread counts, on the host's FFT build (fft_build). Each
///             thread transforms its own grid through the shared plan,
///             which is the tile scheduler's access pattern.
///   backends  the SOCS image and gradient (math/backend, on the
///             coarse Nyquist grid) over 24 synthetic pupil-disc kernels
///             at 512^2 and 1024^2, single thread, under --label; rows of
///             other labels already in the file are kept, so a parent
///             build's rows and a change's can sit side by side.

#include <algorithm>
#include <complex>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "math/backend.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/telemetry/json.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/timer.hpp"

namespace {

using namespace mosaic;

ComplexGrid randomGrid(int n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid g(n, n);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return g;
}

RealGrid randomRealGrid(int n, std::uint64_t seed) {
  Rng rng(seed);
  RealGrid g(n, n);
  for (auto& v : g) v = rng.uniform(0, 1);
  return g;
}

/// Runs `pair` (one forward+inverse round trip on a per-thread grid)
/// `iters` times on each of `threads` concurrent workers and returns the
/// best-of-`reps` wall time of one whole batch, in seconds.
template <typename PairFn>
double timeBatch(int threads, int iters, int reps, const PairFn& pair) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    if (threads <= 1) {
      for (int i = 0; i < iters; ++i) pair(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (int i = 0; i < iters; ++i) pair(t);
        });
      }
      for (auto& th : pool) th.join();
    }
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct Row {
  int size = 0;
  int threads = 0;
  double complexMs = 0.0;
  double realMs = 0.0;
};

// ---------------------------------------------------------------------------
// SOCS series: the image + gradient hot path (docs/performance.md, "The
// SOCS engine"). Synthetic pupil-disc kernels reproduce the band limit the
// engine's coarse grid exploits (support a disc of radius R around DC).
// ---------------------------------------------------------------------------

struct SyntheticKernels {
  std::vector<exec::LatticePoint> lattice;
  std::vector<exec::LatticeValues> values;
  std::vector<double> weights;

  SyntheticKernels(int n, int count) {
    // Radius chosen so the live-row fraction matches real SOCS kernel
    // sets (~5-6% of rows at 1024^2; see litho/kernels): R = 14 at 512^2
    // and 28 at 1024^2, coarse grids of 64^2 and 128^2.
    const int radius = std::max(3, n / 36);
    for (int r = 0; r < n; ++r) {
      const int fr = (r <= n / 2) ? r : r - n;
      for (int c = 0; c < n; ++c) {
        const int fc = (c <= n / 2) ? c : c - n;
        if (fr * fr + fc * fc <= radius * radius) lattice.push_back({fr, fc});
      }
    }
    Rng rng(42);
    for (int k = 0; k < count; ++k) {
      exec::LatticeValues v;
      for (std::size_t s = 0; s < lattice.size(); ++s) {
        v.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
      }
      values.push_back(std::move(v));
      weights.push_back(1.0 / (1.0 + k));
    }
  }

  /// A spectrum grid read at the lattice's sites.
  [[nodiscard]] exec::LatticeValues sample(const ComplexGrid& grid) const {
    const int n = grid.rows();
    exec::LatticeValues out;
    for (const exec::LatticePoint& p : lattice) {
      out.push_back(grid((p.row + n) % n, (p.col + n) % n));
    }
    return out;
  }
};

struct BackendRow {
  int size = 0;
  double aerialMs = 0.0;
  double gradMs = 0.0;
};

/// Backend rows already in `path` under another label, one rendered
/// object each (rows are written one per line).
std::vector<std::string> otherBackendRows(const std::string& path,
                                          const std::string& label) {
  std::vector<std::string> kept;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    {", 0) != 0 ||
        line.find("\"aerial_ms\"") == std::string::npos) {
      continue;
    }
    std::string row = line.substr(4);
    if (row.back() == ',') row.pop_back();
    if (telemetry::JsonValue::parse(row).stringOr("label", "") != label) {
      kept.push_back(row);
    }
  }
  return kept;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string jsonPath = "BENCH_fft.json";
  std::string label = "run";

  CliParser cli("bm_fft", "FFT forward+inverse pairs and the SOCS engine");
  cli.addInt("reps", &reps, "repetitions per config (minimum is reported)");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addString("label", &label, "name of this run's SOCS rows in the JSON");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(reps > 0, "reps must be positive");

    std::vector<Row> rows;
    for (const int n : {256, 512, 1024, 2048}) {
      const Fft2d& fft = fft2dFor(n, n);
      // Keep each batch around the cost of a few 1024^2 pairs so small
      // sizes are timed over many iterations and large ones stay quick.
      const long long px = static_cast<long long>(n) * n;
      const int iters =
          std::max(1, static_cast<int>((1024LL * 1024 * 2) / px));

      constexpr int kMaxThreads = 4;
      std::vector<ComplexGrid> complexGrids;
      std::vector<RealGrid> realGrids;
      std::vector<ComplexGrid> spectra;
      std::vector<RealGrid> realOut;
      for (int t = 0; t < kMaxThreads; ++t) {
        complexGrids.push_back(randomGrid(n, 100u + static_cast<unsigned>(t)));
        realGrids.push_back(randomRealGrid(n, 200u + static_cast<unsigned>(t)));
        spectra.emplace_back(n, n);
        realOut.emplace_back(n, n);
      }

      for (const int threads : {1, 2, kMaxThreads}) {
        Row row;
        row.size = n;
        row.threads = threads;
        const double scale = 1000.0 / iters;
        row.complexMs = scale * timeBatch(threads, iters, reps, [&](int t) {
          auto& g = complexGrids[static_cast<std::size_t>(t)];
          fft.forward(g);
          fft.inverse(g);
        });
        row.realMs = scale * timeBatch(threads, iters, reps, [&](int t) {
          const std::size_t i = static_cast<std::size_t>(t);
          fft.forwardRealInto(realGrids[i], spectra[i]);
          fft.inverseRealInto(spectra[i], realOut[i]);
        });
        rows.push_back(row);
        std::printf("size %4d  threads %d  complex %8.2f ms  real %8.2f ms\n",
                    n, threads, row.complexMs, row.realMs);
        std::fflush(stdout);
      }
    }

    std::vector<BackendRow> backendRows;
    constexpr int kKernels = 24;  // one focus' SOCS kernel count
    for (const int n : {512, 1024}) {
      const Fft2d& fft = fft2dFor(n, n);
      const SyntheticKernels kern(n, kKernels);
      const exec::LatticeValues spectrum = kern.sample(randomGrid(n, 7));
      const RealGrid gField = randomRealGrid(n, 8);
      RealGrid intensity(n, n);
      RealGrid grad(n, n);
      BackendRow row;
      row.size = n;
      row.aerialMs = 1000.0 * timeBatch(1, 1, reps, [&](int) {
        exec::socsImage(fft, kern.lattice, spectrum, kern.values.data(),
                        kern.weights.data(), kKernels, 1.05, intensity);
      });
      row.gradMs = 1000.0 * timeBatch(1, 1, reps, [&](int) {
        exec::socsGradient(fft, kern.lattice, spectrum, kern.values.data(),
                           kern.weights.data(), kKernels, gField, grad);
      });
      backendRows.push_back(row);
      std::printf("socs size %4d  aerial %8.2f ms  grad %8.2f ms\n", n,
                  row.aerialMs, row.gradMs);
      std::fflush(stdout);
    }

    TextTable table;
    table.setHeader({"size", "threads", "complex ms", "real ms"});
    for (const Row& row : rows) {
      table.addRow({std::to_string(row.size), std::to_string(row.threads),
                    TextTable::num(row.complexMs, 2),
                    TextTable::num(row.realMs, 2)});
    }
    std::printf("\n== bm_fft: forward+inverse pair per thread, best of %d "
                "reps ==\n%s",
                reps, table.render().c_str());

    TextTable btable;
    btable.setHeader({"size", "aerial ms", "grad ms"});
    for (const BackendRow& row : backendRows) {
      btable.addRow({std::to_string(row.size), TextTable::num(row.aerialMs, 2),
                     TextTable::num(row.gradMs, 2)});
    }
    std::printf("\n== bm_fft: SOCS image + gradient (%d kernels, "
                "%s build) ==\n%s",
                kKernels, fftBuildName(hostFftBuild()),
                btable.render().c_str());

    std::vector<std::string> socsRows = otherBackendRows(jsonPath, label);
    for (const BackendRow& row : backendRows) {
      telemetry::JsonObject obj;
      obj.set("label", label);
      obj.set("backend", "cpu_simd");
      obj.set("size", row.size);
      obj.set("kernels", kKernels);
      obj.set("aerial_ms", row.aerialMs);
      obj.set("grad_ms", row.gradMs);
      socsRows.push_back(obj.str());
    }
    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json, "{\n  \"bench\": \"bm_fft\",\n  \"reps\": %d,\n"
                       "  \"pair\": \"forward+inverse per thread\",\n"
                       "  \"rows\": [\n", reps);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(json,
                   "    {\"size\": %d, \"threads\": %d, "
                   "\"complex_ms\": %.3f, \"real_ms\": %.3f}%s\n",
                   row.size, row.threads, row.complexMs, row.realMs,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"avx2\": %s,\n  \"fft_build\": \"%s\",\n"
                 "  \"backends\": [\n",
                 exec::cpuHasAvx2() ? "true" : "false",
                 fftBuildName(hostFftBuild()));
    for (std::size_t i = 0; i < socsRows.size(); ++i) {
      std::fprintf(json, "    %s%s\n", socsRows[i].c_str(),
                   i + 1 < socsRows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_fft: %s\n", e.what());
    return 1;
  }
  return 0;
}
