#pragma once
/// \file workloads.hpp
/// The four end-to-end workloads of bm_e2e (README.md). Each one drives
/// the library's public API the way mosaic_cli or mosaic_serve does, from
/// inputs generated from the seed, and returns its end-to-end metrics,
/// per-layer metrics and output checks.

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace mosaic::e2e {

/// Executor workers, fixed so every run sees the same parallelism.
constexpr int kWorkers = 4;

/// Open-loop arrival rate of serve_open in jobs/s: 40% of the closed-loop
/// capacity `bm_e2e --probe-capacity` measured (32.7 jobs/s, README.md).
constexpr double kServeRatePerSec = 13.0;

[[nodiscard]] const std::vector<std::string>& workloadNames();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured-loop length
  bool trace = false;     ///< record spans and compute per-layer metrics
  bool smoke = false;     ///< smallest size: one setup, minimal loop
  std::string workDir;    ///< scratch space; created and removed here
};

struct RunResult {
  Report endToEnd;
  /// Per-layer metrics of traced runs that every workload measures (the
  /// BENCHMARK.json per_layer list; idle layers report zero counts).
  Report layers;
  /// Numbers outside the BENCHMARK.json lists, printed and written to
  /// --json but not part of the result line: the loop's sample count, tail
  /// and throughput, and in traced runs the timings of layers only some
  /// workloads use (tile, cache, serve).
  Report details;
  std::vector<double> latencyMs;  ///< every latency sample of the loop
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> checkFailures;  ///< empty when every check passed
};

/// Run one workload. Throws on unknown names or library errors.
RunResult runWorkload(const RunOptions& opt, Tracer& tracer);

/// Closed-loop serve capacity (jobs/s) with the serve_open job mix: as many
/// jobs in flight as workers, for `seconds`.
double probeServeCapacity(std::uint64_t seed, double seconds,
                          const std::string& workDir);

}  // namespace mosaic::e2e
