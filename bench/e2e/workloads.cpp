/// \file workloads.cpp
/// The clip_cold, suite_warm, chip_mix and serve_open workloads of bm_e2e
/// (README.md explains why each exists and what it isolates).
///
/// Every workload has the same shape: set up several times (the median is
/// setup_s), run one untimed operation, run a measured loop for the
/// requested seconds, then check the outputs. A traced run also records a
/// span around every call the bench makes into a library layer and, after
/// the loop, probes the layer entry points the loop does not call itself
/// on the workload's own inputs, so every per-layer metric is a
/// measurement on every workload.

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "eval/evaluator.hpp"
#include "eval/pvband.hpp"
#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "serve/job.hpp"
#include "serve/service.hpp"
#include "suite/testcases.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tile/scheduler.hpp"
#include "tile/stitch.hpp"
#include "tile/tiling.hpp"

namespace mosaic::e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr int kClipPixelNm = 4;   // mosaic_cli run/batch default
constexpr int kServePixelNm = 8;
/// Coarse enough that one chip takes well under a second, so a run times
/// tens of chips rather than a handful (README.md).
constexpr int kChipPixelNm = 16;
constexpr int kTileNm = 1024;
constexpr double kRepeatShare = 0.2;  // serve_open jobs that reuse a clip
/// Nominal and defocused kernel sets: every corner the optimizer and the
/// evaluator touch.
const std::vector<double> kFocuses{0.0, 25.0};

OpticsConfig clipOptics(int pixelNm) {
  OpticsConfig optics;
  optics.pixelNm = pixelNm;
  return optics;
}

std::string gridHash(const BitGrid& grid) {
  return Fnv1a().mixBytes(grid.data(), grid.size()).hex();
}

bool allFinite(const RealGrid& grid) {
  return std::all_of(grid.begin(), grid.end(),
                     [](double v) { return std::isfinite(v); });
}

bool finiteEvaluation(const CaseEvaluation& ev) {
  return std::isfinite(ev.meanAbsEpeNm) && std::isfinite(ev.maxAbsEpeNm) &&
         std::isfinite(ev.pvbandAreaNm2) && std::isfinite(ev.score);
}

/// One clip optimized and evaluated, as `run` and `batch` do it.
struct Solve {
  std::string label;  ///< clip name + method
  std::string hash;   ///< serve::maskHashHex of the two-level mask
  bool ok = false;    ///< finite mask and evaluation, no non-finite abort
  CaseEvaluation ev;
  int iterations = 0;
  RealGrid mask;
};

Solve solveClip(const LithoSimulator& sim, const Layout& clip,
                const BitGrid& target, OpcMethod method, Tracer& tracer,
                std::vector<double>* iterationMs) {
  IterationCallback callback;
  if (iterationMs != nullptr) {
    callback = [iterationMs](const IterationRecord& r, const RealGrid&) {
      iterationMs->push_back(r.wallMs);
    };
  }
  OpcResult res;
  {
    const auto span = tracer.scope("opc.optimize");
    res = runOpc(sim, target, method, nullptr, {}, callback, {});
  }
  Solve solve;
  {
    const auto span = tracer.scope("eval.evaluate");
    solve.ev = evaluateMask(sim, res.maskTwoLevel, target, res.runtimeSec);
  }
  solve.label = clip.name + "/" + methodName(method);
  solve.hash = serve::maskHashHex(res.maskTwoLevel);
  solve.ok = res.stopReason != StopReason::kAbortedNonFinite &&
             allFinite(res.maskTwoLevel) && finiteEvaluation(solve.ev);
  solve.iterations = res.iterations;
  solve.mask = std::move(res.maskTwoLevel);
  return solve;
}

/// Runs `setup` `repeats` times, keeping the last state; the median time
/// is setup_s. Earlier states are destroyed outside the timed region.
template <typename Setup>
auto repeatSetup(int repeats, Setup setup, std::vector<double>* seconds) {
  decltype(setup(0)) state;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    auto next = setup(rep);
    seconds->push_back(timer.seconds());
    state = std::move(next);
  }
  return state;
}

/// Process-level counters sampled around the measured loop.
struct LoopCounters {
  PoolStats pool;
  ResourceProbe usage;
  static LoopCounters sample() { return {poolStats(), ResourceProbe::sample()}; }
};

/// A finished measured loop: per-operation latencies plus its wall.
struct Loop {
  std::vector<double> latencyMs;
  double wallSeconds = 0.0;
  int rootSpan = -1;
  LoopCounters before;
  LoopCounters after;
};

/// Runs warmUp() once untimed, so first-use costs (page faults, scratch
/// pools, lazily started executor workers) stay out of the samples. Then
/// runs op(i) for i = 0, 1, ... (op returns its latency ms), at least
/// `minOps` times, and stops at the operation boundary nearest to
/// opt.seconds. A smoke run times nothing it reports, so it skips the
/// warm-up and stops after exactly `minOps`.
Loop measureLoop(const RunOptions& opt, int minOps, Tracer& tracer,
                 const std::function<void()>& warmUp,
                 const std::function<double(int)>& op) {
  if (!opt.smoke) warmUp();
  Loop loop;
  loop.before = LoopCounters::sample();
  WallTimer wall;
  {
    const auto root = tracer.scope("workload.loop");
    loop.rootSpan = root.index();
    for (int i = 0;; ++i) {
      if (i >= minOps &&
          (opt.smoke ||
           wall.seconds() + loop.latencyMs.back() / 2e3 >= opt.seconds)) {
        break;
      }
      loop.latencyMs.push_back(op(i));
    }
  }
  loop.wallSeconds = wall.seconds();
  loop.after = LoopCounters::sample();
  return loop;
}

/// The end-to-end metrics every workload reports (BENCHMARK.json).
void setEndToEnd(RunResult& out, const std::vector<double>& setupSeconds,
                 std::vector<double> latencyMs, double opsPerSecond) {
  out.endToEnd.set("setup_s", median(setupSeconds), "s");
  out.endToEnd.set("latency_p50_ms", quantile(latencyMs, 0.5), "ms");
  out.endToEnd.set("ops_per_s", opsPerSecond, "1/s");
  out.endToEnd.set("peak_rss_mb", ResourceProbe::sample().peakRssMb, "MB");
  // The closed-loop workloads take too few samples for a percentile above
  // the median to have ten beyond it, and a bound holds for every
  // workload, so the tail is reported without one.
  out.details.set("latency_p90_ms", quantile(latencyMs, 0.9), "ms");
  out.details.set("samples", static_cast<double>(latencyMs.size()), "count");
  out.latencyMs = std::move(latencyMs);
}

/// Per-layer metrics of layers a workload may leave idle start at zero.
void zeroIdleLayers(Report& layers) {
  for (const char* name : {"tile.optimized", "tile.pasted",
                           "cache.misses", "cache.inserts", "serve.retries",
                           "serve.rejected"}) {
    layers.set(name, 0.0, "count");
  }
  for (const char* name : {"tile.busy_ratio", "cache.paste_share",
                           "cache.hit_rate", "serve.hit_share"}) {
    layers.set(name, 0.0, "ratio");
  }
  layers.set("tile.seam_disagree_pct", 0.0, "%");
}

/// Times the layer entry points a workload's loop does not call itself,
/// on that workload's geometry, target and solved mask: the TCC assembly
/// and the full kernel-set build (the eigensolve is their difference),
/// the SOCS aerial sum, the mask spectrum, one objective+gradient
/// evaluation and the PV band.
void probeLayers(const LithoSimulator& sim, const BitGrid& target,
                 const RealGrid& mask, Tracer& tracer) {
  constexpr int kRepeats = 5;
  const OpticsConfig& optics = sim.optics();
  const std::vector<PupilSample> lattice = pupilLattice(optics);
  {
    const auto span = tracer.scope("litho.tcc_assemble");
    const auto tcc = buildTcc(optics, kFocuses[1], lattice);
    MOSAIC_CHECK(!tcc.empty(), "empty TCC");
  }
  {
    const auto span = tracer.scope("litho.kernel_set");
    const KernelSet set = computeKernelSet(optics, kFocuses[1]);
    MOSAIC_CHECK(set.kernelCount() > 0, "empty kernel set");
  }
  const IltObjective objective(sim, target,
                               defaultIltConfig(OpcMethod::kMosaicFast,
                                                optics.pixelNm));
  for (int i = 0; i < kRepeats; ++i) {
    {
      const auto span = tracer.scope("litho.mask_spectrum");
      (void)sim.maskSpectrum(mask);
    }
    {
      const auto span = tracer.scope("litho.aerial");
      (void)sim.aerial(mask, nominalCorner());
    }
    {
      const auto span = tracer.scope("opc.objective");
      (void)objective.evaluate(mask, true);
    }
    {
      const auto span = tracer.scope("eval.pvband");
      (void)computePvBand(sim, mask, evaluationCorners());
    }
  }
}

/// Per-layer metrics derived from the recorded spans and loop counters.
void setTraceLayers(RunResult& out, const Tracer& tracer, const Loop& loop,
                    const std::vector<Solve>& solves,
                    const std::vector<double>& iterationMs, int pupilSamples,
                    double speedup) {
  Report& l = out.layers;
  const auto spanMedian = [&](const char* name) {
    return median(tracer.durationsMs(name));
  };
  l.set("litho.kernels_ms", spanMedian("litho.kernels"), "ms");
  const double tccMs = spanMedian("litho.tcc_assemble");
  const double setMs = spanMedian("litho.kernel_set");
  l.set("litho.tcc_assemble_ms", tccMs, "ms");
  l.set("litho.kernel_set_ms", setMs, "ms");
  l.set("litho.eigen_ms", setMs - tccMs, "ms");
  l.set("litho.pupil_samples", pupilSamples, "count");
  l.set("litho.aerial_ms", spanMedian("litho.aerial"), "ms");
  l.set("litho.mask_spectrum_ms", spanMedian("litho.mask_spectrum"), "ms");
  l.set("opc.objective_ms", spanMedian("opc.objective"), "ms");
  l.set("opc.optimize_ms", spanMedian("opc.optimize"), "ms");
  l.set("opc.iteration_ms", median(iterationMs), "ms");
  std::vector<double> iterations;
  double epe = 0.0;
  double pvband = 0.0;
  for (const Solve& s : solves) {
    iterations.push_back(s.iterations);
    epe += s.ev.epeViolations;
    pvband += s.ev.pvbandAreaNm2;
  }
  l.set("opc.iterations", median(iterations), "count");
  l.set("eval.evaluate_ms", spanMedian("eval.evaluate"), "ms");
  l.set("eval.pvband_ms", spanMedian("eval.pvband"), "ms");
  l.set("eval.epe_violations", epe, "count");
  l.set("eval.pvband_nm2", pvband, "nm2");

  const double wall = loop.wallSeconds;
  const double cpu = (loop.after.usage.userCpuSec + loop.after.usage.sysCpuSec) -
                     (loop.before.usage.userCpuSec + loop.before.usage.sysCpuSec);
  l.set("exec.tasks",
        static_cast<double>(loop.after.pool.tasksExecuted -
                            loop.before.pool.tasksExecuted),
        "count");
  l.set("exec.steals",
        static_cast<double>(loop.after.pool.tasksStolen -
                            loop.before.pool.tasksStolen),
        "count");
  l.set("exec.cpu_util", wall > 0.0 ? cpu / (wall * kWorkers) : 0.0, "ratio");
  l.set("exec.speedup", speedup, "ratio");

  // Spans are appended in start order, so the loop's spans are the ones
  // after its root that start before the root ends.
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const double loopEnd = spans[static_cast<std::size_t>(loop.rootSpan)].endMs;
  const auto loopSpans =
      std::count_if(spans.begin() + loop.rootSpan, spans.end(),
                    [&](const Tracer::Span& s) { return s.startMs < loopEnd; });
  l.set("trace.unattributed_pct", tracer.unattributedPct(loop.rootSpan), "%");
  l.set("trace.overhead_pct",
        wall > 0.0 ? 100.0 * static_cast<double>(loopSpans) *
                         Tracer::spanCostMs() / (wall * 1e3)
                   : 0.0,
        "%");
}

/// Wall of fn() at one executor worker over its wall at kWorkers: the
/// single-thread baseline of a fixed sub-run.
double measureSpeedup(const std::function<void()>& fn) {
  setParallelism(1);
  WallTimer serial;
  fn();
  const double serialSeconds = serial.seconds();
  setParallelism(kWorkers);
  WallTimer parallel;
  fn();
  return serialSeconds / std::max(parallel.seconds(), 1e-9);
}

/// Flags non-finite or aborted solves; loop solves also count as attempted
/// (and failed) operations, probe solves do not.
void checkSolves(RunResult& out, const std::vector<Solve>& solves,
                 bool countOps) {
  for (const Solve& s : solves) {
    if (countOps) ++out.attempted;
    if (!s.ok) {
      if (countOps) ++out.failed;
      out.checkFailures.push_back(s.label +
                                  ": non-finite mask/evaluation or abort");
    }
  }
}

/// Keeps the first solve's mask (the layer probes use it) and drops the
/// rest, so held masks do not inflate peak RSS.
void keepSolve(std::vector<Solve>& solves, Solve solve) {
  if (!solves.empty()) solve.mask = RealGrid();
  solves.push_back(std::move(solve));
}

/// Solves of the same input in one run must agree bit for bit.
void checkRepeats(RunResult& out, const std::vector<Solve>& solves,
                  std::size_t period) {
  for (std::size_t i = period; i < solves.size(); ++i) {
    if (solves[i].hash != solves[i % period].hash) {
      out.checkFailures.push_back(solves[i].label +
                                  ": repeated solve changed the mask hash");
    }
  }
}

struct ClipInput {
  Layout layout;
  BitGrid target;
};

/// The integers first..last in a seeded random order.
std::vector<int> shuffled(int first, int last, Rng& rng) {
  std::vector<int> values;
  for (int v = first; v <= last; ++v) values.push_back(v);
  for (std::size_t n = values.size(); n > 1; --n) {
    std::swap(values[n - 1], values[rng.below(n)]);
  }
  return values;
}

// ---------------------------------------------------------------- clip_cold

struct ColdState {
  std::vector<ClipInput> inputs;
  std::unique_ptr<LithoSimulator> warmSim;  ///< reference for the warm path
};

RunResult runClipCold(const RunOptions& opt, Tracer& tracer) {
  // Suite clips alternate with random clips; the loop cycles through them.
  Rng rng(opt.seed);
  const std::vector<int> cases = shuffled(1, kTestcaseCount, rng);
  std::vector<Layout> layouts;
  for (int i = 0; i < 4; ++i) {
    layouts.push_back(buildTestcase(cases[static_cast<std::size_t>(i)]));
    layouts.push_back(buildRandomClip(rng.next()));
  }

  std::vector<double> setupSeconds;
  const auto state = repeatSetup(
      opt.smoke ? 1 : kSetupRepeats,
      [&](int) {
        auto s = std::make_unique<ColdState>();
        for (const Layout& layout : layouts) {
          s->inputs.push_back({layout, rasterize(layout, kClipPixelNm)});
        }
        s->warmSim =
            std::make_unique<LithoSimulator>(clipOptics(kClipPixelNm));
        const auto span = tracer.scope("litho.kernels");
        s->warmSim->warmKernels(kFocuses);
        return s;
      },
      &setupSeconds);

  std::vector<Solve> solves;
  std::vector<double> iterationMs;
  auto* iterSink = tracer.enabled() ? &iterationMs : nullptr;
  const auto coldSolve = [&](const ClipInput& in, Tracer& spans,
                             std::vector<double>* sink) {
    LithoSimulator sim(clipOptics(kClipPixelNm));
    {
      const auto span = spans.scope("litho.kernels");
      sim.warmKernels(kFocuses);
    }
    return solveClip(sim, in.layout, in.target, OpcMethod::kMosaicFast,
                     spans, sink);
  };
  // The warm-up, the checks and the speed-up sub-runs record no spans.
  Tracer untraced(false);
  const int minOps = opt.smoke ? 2 : static_cast<int>(layouts.size());
  const Loop loop = measureLoop(
      opt, minOps, tracer,
      [&] { (void)coldSolve(state->inputs.front(), untraced, nullptr); },
      [&](int i) {
        const ClipInput& in =
            state->inputs[static_cast<std::size_t>(i) % state->inputs.size()];
        WallTimer timer;
        Solve solve = coldSolve(in, tracer, iterSink);
        const double ms = timer.milliseconds();
        keepSolve(solves, std::move(solve));
        return ms;
      });

  RunResult out;
  setEndToEnd(out, setupSeconds, loop.latencyMs,
              static_cast<double>(solves.size()) / loop.wallSeconds);
  checkSolves(out, solves, true);
  checkRepeats(out, solves, state->inputs.size());
  // The cold path (fresh simulator per clip) and the warm path (one shared
  // simulator, as in suite_warm) must produce the same mask.
  for (std::size_t i = 0; i < 2 && i < solves.size(); ++i) {
    const ClipInput& in = state->inputs[i];
    const Solve warm = solveClip(*state->warmSim, in.layout, in.target,
                                 OpcMethod::kMosaicFast, untraced, nullptr);
    if (warm.hash != solves[i].hash) {
      out.checkFailures.push_back(solves[i].label +
                                  ": cold and warm mask hashes differ");
    }
  }

  if (tracer.enabled()) {
    zeroIdleLayers(out.layers);
    const ClipInput& in = state->inputs.front();
    probeLayers(*state->warmSim, in.target, solves.front().mask, tracer);
    const double speedup =
        measureSpeedup([&] { (void)coldSolve(in, untraced, nullptr); });
    const std::vector<Solve> prefix(solves.begin(), solves.begin() + minOps);
    setTraceLayers(out, tracer, loop, prefix, iterationMs,
                   static_cast<int>(pupilLattice(clipOptics(kClipPixelNm))
                                        .size()),
                   speedup);
  }
  return out;
}

// --------------------------------------------------------------- suite_warm

struct WarmState {
  std::vector<ClipInput> clips;
  std::unique_ptr<LithoSimulator> sim;
};

RunResult runSuiteWarm(const RunOptions& opt, Tracer& tracer) {
  // B1..B10 plus five seeded random clips; the loop cycles through them.
  // One operation is a clip under both methods: one method per
  // operation would give two latency modes (exact costs ~25% more than
  // fast), and the median of such a mix jumps between them run to run.
  constexpr std::array<OpcMethod, 2> kMethods{OpcMethod::kMosaicFast,
                                              OpcMethod::kMosaicExact};
  Rng rng(opt.seed);
  std::vector<Layout> plan;
  for (int k = 1; k <= kTestcaseCount; ++k) {
    plan.push_back(buildTestcase(k));
    if (k % 2 == 0) plan.push_back(buildRandomClip(rng.next()));
  }

  std::vector<double> setupSeconds;
  const auto state = repeatSetup(
      opt.smoke ? 1 : kSetupRepeats,
      [&](int) {
        auto s = std::make_unique<WarmState>();
        for (const Layout& layout : plan) {
          s->clips.push_back({layout, rasterize(layout, kClipPixelNm)});
        }
        s->sim = std::make_unique<LithoSimulator>(clipOptics(kClipPixelNm));
        const auto span = tracer.scope("litho.kernels");
        s->sim->warmKernels(kFocuses);
        return s;
      },
      &setupSeconds);

  std::vector<Solve> solves;
  std::vector<double> iterationMs;
  auto* iterSink = tracer.enabled() ? &iterationMs : nullptr;
  Tracer untraced(false);
  const int minOps = opt.smoke ? 1 : static_cast<int>(plan.size());
  const Loop loop = measureLoop(
      opt, minOps, tracer,
      [&] {
        const ClipInput& in = state->clips.front();
        (void)solveClip(*state->sim, in.layout, in.target,
                        OpcMethod::kMosaicFast, untraced, nullptr);
      },
      [&](int i) {
        const ClipInput& in =
            state->clips[static_cast<std::size_t>(i) % state->clips.size()];
        WallTimer timer;
        for (const OpcMethod method : kMethods) {
          keepSolve(solves, solveClip(*state->sim, in.layout, in.target,
                                      method, tracer, iterSink));
        }
        return timer.milliseconds();
      });

  RunResult out;
  setEndToEnd(out, setupSeconds, loop.latencyMs,
              static_cast<double>(loop.latencyMs.size()) / loop.wallSeconds);
  checkSolves(out, solves, true);
  checkRepeats(out, solves, kMethods.size() * state->clips.size());

  if (tracer.enabled()) {
    zeroIdleLayers(out.layers);
    const ClipInput& first = state->clips.front();
    probeLayers(*state->sim, first.target, solves.front().mask, tracer);
    const ClipInput& b4 = *std::find_if(
        state->clips.begin(), state->clips.end(),
        [](const ClipInput& in) { return in.layout.name == "B4"; });
    const double speedup = measureSpeedup([&] {
      (void)runOpc(*state->sim, b4.target, OpcMethod::kMosaicFast);
    });
    const std::vector<Solve> prefix(
        solves.begin(),
        solves.begin() + static_cast<long>(kMethods.size()) * minOps);
    setTraceLayers(out, tracer, loop, prefix, iterationMs,
                   static_cast<int>(pupilLattice(clipOptics(kClipPixelNm))
                                        .size()),
                   speedup);
  }
  return out;
}

// ----------------------------------------------------------------- chip_mix

/// Lower half: one seed-chosen suite clip stepped and repeated, so its
/// interior tiles share fingerprint classes and paste. Upper half:
/// distinct seeded random clips, each a miss and an insert.
Layout buildMixedChip(Rng& rng, int tilesPerSide) {
  const Layout cell = buildTestcase(shuffled(1, kTestcaseCount, rng).front());
  Layout chip;
  chip.name = "chip_mix";
  chip.sizeNm = tilesPerSide * kTileNm;
  for (int r = 0; r < tilesPerSide; ++r) {
    for (int c = 0; c < tilesPerSide; ++c) {
      const Layout clip =
          r < tilesPerSide / 2 ? cell : buildRandomClip(rng.next());
      for (const RectNm& rect : clip.rects) {
        chip.addRect(rect.x0 + c * kTileNm, rect.y0 + r * kTileNm,
                     rect.x1 + c * kTileNm, rect.y1 + r * kTileNm);
      }
    }
  }
  return chip;
}

ChipConfig chipConfig(const std::string& kernelDir) {
  ChipConfig cfg;  // mosaic_cli chip defaults otherwise
  cfg.tiling.tileSizeNm = kTileNm;
  cfg.tiling.pixelNm = kChipPixelNm;
  cfg.optics.pixelNm = kChipPixelNm;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.kernelCacheDir = kernelDir;
  return cfg;
}

struct ChipState {
  Layout chip;
  ChipPartition partition;
  std::string kernelDir;
  std::unique_ptr<LithoSimulator> windowSim;
};

/// The tile fingerprints optimizeChip keys the pattern store with.
std::vector<TileFingerprint> tileFingerprints(const ChipPartition& part,
                                              const ChipConfig& cfg,
                                              const OpticsConfig& window) {
  const std::uint64_t configHash = solverConfigDigest(
      window, defaultIltConfig(cfg.method, part.pixelNm),
      static_cast<int>(cfg.method), part.windowNm, part.pixelNm);
  std::vector<TileFingerprint> fps;
  for (const TilePlan& tile : part.tiles) {
    const RectNm coreLocal{tile.coreNm.x0 - tile.windowNm.x0,
                           tile.coreNm.y0 - tile.windowNm.y0,
                           tile.coreNm.x1 - tile.windowNm.x0,
                           tile.coreNm.y1 - tile.windowNm.y0};
    fps.push_back(
        fingerprintWindow(tile.window, coreLocal, part.pixelNm, configHash));
  }
  return fps;
}

RunResult runChipMix(const RunOptions& opt, Tracer& tracer) {
  Rng rng(opt.seed);
  const Layout chipLayout = buildMixedChip(rng, opt.smoke ? 2 : 6);

  std::vector<double> setupSeconds;
  const auto state = repeatSetup(
      opt.smoke ? 1 : kSetupRepeats,
      [&](int rep) {
        auto s = std::make_unique<ChipState>();
        s->chip = chipLayout;
        s->kernelDir = opt.workDir + "/kernels-" + std::to_string(rep);
        fs::remove_all(s->kernelDir);
        fs::create_directories(s->kernelDir);
        const ChipConfig cfg = chipConfig(s->kernelDir);
        s->partition = partitionChip(s->chip, cfg.tiling, cfg.optics);
        OpticsConfig window = cfg.optics;
        window.clipSizeNm = s->partition.windowNm;
        s->windowSim = std::make_unique<LithoSimulator>(window);
        s->windowSim->setKernelCacheDir(s->kernelDir);
        const auto span = tracer.scope("litho.kernels");
        s->windowSim->warmKernels(kFocuses);
        return s;
      },
      &setupSeconds);

  // Only the latest chip is kept, so peak RSS does not grow with the
  // number of chips a run fits in.
  RunResult out;
  ChipConfig cfg = chipConfig(state->kernelDir);
  ChipResult last;
  std::string lastStore;
  const Loop loop = measureLoop(
      opt, 1, tracer,
      [&] {
        ChipConfig warmUp = cfg;
        warmUp.patternCacheDir = opt.workDir + "/store-warm-up";
        fs::remove_all(warmUp.patternCacheDir);
        (void)optimizeChip(state->chip, warmUp);
        fs::remove_all(warmUp.patternCacheDir);
      },
      [&](int i) {
        const std::string store = opt.workDir + "/store-" + std::to_string(i);
        fs::remove_all(store);
        cfg.patternCacheDir = store;
        WallTimer timer;
        {
          const auto span = tracer.scope("tile.optimize_chip");
          last = optimizeChip(state->chip, cfg);
        }
        const double ms = timer.milliseconds();
        if (!lastStore.empty()) fs::remove_all(lastStore);
        lastStore = store;
        out.attempted += last.partition.tileCount();
        out.failed += last.failed;
        if (last.failed > 0) {
          out.checkFailures.push_back(std::to_string(last.failed) +
                                      " chip tiles fell back to the target");
        }
        if (last.stitched.report.nonFinitePixels > 0) {
          out.checkFailures.push_back(
              "stitched chip mask has non-finite pixels");
        }
        return ms;
      });
  setEndToEnd(out, setupSeconds, loop.latencyMs,
              static_cast<double>(loop.latencyMs.size()) / loop.wallSeconds);

  // Rerun against the last filled store: every tile pastes, and the
  // stitched mask must be bit-identical to the run that filled it. Cold
  // runs need not agree with each other: representatives of classes that
  // share a core run concurrently, and whichever inserts first warm-starts
  // the others (a near-miss hit).
  cfg.patternCacheDir = lastStore;
  const ChipResult warm = optimizeChip(state->chip, cfg);
  if (warm.failed > 0 || gridHash(warm.stitched.maskBinary) !=
                             gridHash(last.stitched.maskBinary)) {
    out.checkFailures.push_back(
        "warm-store rerun did not stitch a bit-identical mask");
  }

  Report& l = out.layers;
  Report& d = out.details;
  if (tracer.enabled()) {
    zeroIdleLayers(l);
    int optimized = 0;
    int pasted = 0;
    int warmStarted = 0;
    double busyMs = 0.0;
    std::vector<double> tileMs;  // optimized tiles only
    for (const TileOutcome& o : last.outcomes) {
      busyMs += o.seconds * 1e3;
      if (o.fromCache) ++pasted;
      if (o.warmStarted) ++warmStarted;
      if (!o.fromCache && !o.skippedEmpty) {
        ++optimized;
        tileMs.push_back(o.seconds * 1e3);
      }
    }
    const int tiles = last.partition.tileCount();
    d.set("tile.tiles", tiles, "count");
    l.set("tile.optimized", optimized, "count");
    l.set("tile.pasted", pasted, "count");
    d.set("tile.warm_started", warmStarted, "count");
    l.set("tile.busy_ratio",
          busyMs / (loop.latencyMs.back() * kWorkers), "ratio");
    l.set("tile.seam_disagree_pct",
          100.0 * last.stitched.report.disagreementFraction, "%");
    l.set("cache.paste_share", static_cast<double>(pasted) / tiles, "ratio");
    l.set("cache.hit_rate", last.cacheStats.hitRate(), "ratio");
    l.set("cache.misses", static_cast<double>(last.cacheStats.misses),
          "count");
    l.set("cache.inserts", static_cast<double>(last.cacheStats.inserts),
          "count");
    d.set("tile.tile_ms_p50", median(tileMs), "ms");
    d.set("tile.tile_ms_max", quantile(tileMs, 1.0), "ms");

    // Layer calls optimizeChip makes internally, timed from outside on the
    // same inputs: partition, stitch over the window rasters, and the
    // pattern store's lookup (on the filled store) and insert.
    const ChipPartition& part = state->partition;
    std::vector<RealGrid> windows;
    for (const TilePlan& tile : part.tiles) {
      windows.push_back(toReal(rasterize(tile.window, part.pixelNm)));
    }
    std::vector<double> partitionMs;
    std::vector<double> stitchMs;
    for (int i = 0; i < 3; ++i) {
      WallTimer t;
      (void)partitionChip(state->chip, cfg.tiling, cfg.optics);
      partitionMs.push_back(t.milliseconds());
      t.reset();
      (void)stitchTiles(part, windows);
      stitchMs.push_back(t.milliseconds());
    }
    d.set("tile.partition_ms", median(partitionMs), "ms");
    d.set("tile.stitch_ms", median(stitchMs), "ms");

    const std::vector<TileFingerprint> fps =
        tileFingerprints(part, cfg, state->windowSim->optics());
    PatternStore filled(PatternStoreConfig{lastStore});
    const std::string probeDir = opt.workDir + "/store-probe";
    fs::remove_all(probeDir);
    PatternStore fresh(PatternStoreConfig{probeDir});
    std::vector<double> lookupMs;
    std::vector<double> insertMs;
    int found = 0;
    for (const TileFingerprint& fp : fps) {
      WallTimer t;
      CacheLookup hit = filled.lookup(fp);
      lookupMs.push_back(t.milliseconds());
      if (hit.kind == CacheHitKind::kMiss) continue;
      ++found;
      t.reset();
      (void)fresh.insert(fp, hit.solution);
      insertMs.push_back(t.milliseconds());
    }
    if (found == 0) {
      out.checkFailures.push_back("filled pattern store answered no lookup");
    }
    d.set("cache.lookup_ms", median(lookupMs), "ms");
    d.set("cache.insert_ms", median(insertMs), "ms");

    // One tile window through the single-clip path on the chip's window
    // simulator, then the shared layer probes on its solved mask.
    const TilePlan& tile = part.tiles.front();
    const BitGrid target = rasterize(tile.window, part.pixelNm);
    std::vector<double> iterationMs;
    const std::vector<Solve> solves{solveClip(*state->windowSim, tile.window,
                                              target, cfg.method, tracer,
                                              &iterationMs)};
    checkSolves(out, solves, false);
    probeLayers(*state->windowSim, target, solves.front().mask, tracer);

    const Layout sub = clipLayout(state->chip, {0, 0, 2 * kTileNm, 2 * kTileNm},
                                  "chip_mix_2x2");
    int subRun = 0;
    const double speedup = measureSpeedup([&] {
      ChipConfig subCfg = cfg;
      subCfg.patternCacheDir =
          opt.workDir + "/store-sub-" + std::to_string(subRun++);
      (void)optimizeChip(sub, subCfg);
    });
    setTraceLayers(out, tracer, loop, solves, iterationMs,
                   static_cast<int>(
                       pupilLattice(state->windowSim->optics()).size()),
                   speedup);
  }
  return out;
}

// --------------------------------------------------------------- serve_open

struct PlannedJob {
  double dueSeconds = 0.0;
  std::uint64_t clipSeed = 0;  ///< buildRandomClip seed ("random:<seed>")
  int firstIndex = -1;  ///< earlier job with the same clip, -1 if none

  [[nodiscard]] std::string caseName() const {
    return "random:" + std::to_string(clipSeed);
  }
};

/// Seeded open-loop plan over count / ratePerSec seconds: a Poisson
/// process at `ratePerSec` conditioned on `count` arrivals in that span
/// (exponential gaps rescaled to it), so every seed offers the same load
/// with its own burstiness. Exactly kRepeatShare of the jobs, at seeded
/// positions, reuse the clip of an earlier job.
std::vector<PlannedJob> planJobs(std::uint64_t seed, int count,
                                 double ratePerSec) {
  Rng rng(seed);
  std::vector<bool> repeats(static_cast<std::size_t>(count), false);
  const std::vector<int> order = shuffled(1, count - 1, rng);
  const auto repeatCount = static_cast<std::size_t>(kRepeatShare * count);
  for (std::size_t k = 0; k < repeatCount && k < order.size(); ++k) {
    repeats[static_cast<std::size_t>(order[k])] = true;
  }
  const auto gap = [&rng] { return -std::log(1.0 - rng.uniform()); };
  std::vector<PlannedJob> jobs;
  std::vector<int> firsts;
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    PlannedJob job;
    t += gap();
    job.dueSeconds = t;
    if (repeats[static_cast<std::size_t>(i)]) {
      job.firstIndex = firsts[rng.below(firsts.size())];
      job.clipSeed = jobs[static_cast<std::size_t>(job.firstIndex)].clipSeed;
    } else {
      job.clipSeed = rng.next();
      firsts.push_back(i);
    }
    jobs.push_back(job);
  }
  const double scale = count / ratePerSec / (t + gap());
  for (PlannedJob& job : jobs) job.dueSeconds *= scale;
  return jobs;
}

serve::JobSpec jobSpec(const std::string& caseName) {
  serve::JobSpec spec;  // the wire defaults mosaic_cli submit sends
  spec.caseName = caseName;
  spec.method = "fast";
  spec.pixelNm = kServePixelNm;
  return spec;
}

bool terminal(serve::JobState state) {
  return state != serve::JobState::kQueued &&
         state != serve::JobState::kRunning;
}

void waitForJob(serve::JobService& service, const std::string& id,
                serve::JobSnapshot* snap) {
  while (service.snapshot(id, snap) && !terminal(snap->state)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// A JobService with mosaic_serve's defaults plus a pattern store, and its
/// warm simulator pool built by one warm-up job whose clip the job mix
/// never uses.
std::unique_ptr<serve::JobService> startService(const std::string& dir,
                                                int queueCapacity) {
  fs::remove_all(dir);
  serve::ServeConfig cfg;
  cfg.workDir = dir;
  cfg.queueCapacity = std::max(cfg.queueCapacity, queueCapacity);
  cfg.patternCacheDir = dir + "/store";
  auto service = std::make_unique<serve::JobService>(cfg);
  const serve::SubmitResult warm = service->submit(jobSpec("B1"));
  MOSAIC_CHECK(warm.status == serve::SubmitStatus::kAccepted,
               "warm-up job rejected: " << warm.message);
  serve::JobSnapshot snap;
  waitForJob(*service, warm.id, &snap);
  MOSAIC_CHECK(snap.state == serve::JobState::kDone,
               "warm-up job ended " << serve::jobStateName(snap.state));
  return service;
}

RunResult runServeOpen(const RunOptions& opt, Tracer& tracer) {
  const int count =
      opt.smoke ? 8
                : std::max(1, static_cast<int>(std::lround(
                                  kServeRatePerSec * opt.seconds)));
  const std::vector<PlannedJob> plan =
      planJobs(opt.seed, count, kServeRatePerSec);

  std::vector<double> setupSeconds;
  std::unique_ptr<serve::JobService> service = repeatSetup(
      opt.smoke ? 1 : kSetupRepeats,
      [&](int rep) {
        return startService(opt.workDir + "/serve-" + std::to_string(rep),
                            count);
      },
      &setupSeconds);

  // One generator thread: submit each job at its due time, and poll the
  // outstanding ones between arrivals. Latency runs from the due time, so
  // a stalled submit also delays every later job's clock.
  const auto n = static_cast<std::size_t>(count);
  std::vector<std::string> ids(n);
  std::vector<double> doneSeconds(n, -1.0);
  std::vector<double> submitMs;
  std::vector<double> lateMs;
  std::vector<serve::JobSnapshot> finals(n);
  std::vector<std::size_t> outstanding;
  long long rejected = 0;
  Loop loop;
  loop.before = LoopCounters::sample();
  WallTimer clock;
  {
    const auto root = tracer.scope("workload.loop");
    loop.rootSpan = root.index();
    std::size_t next = 0;
    while (next < n || !outstanding.empty()) {
      MOSAIC_CHECK(clock.seconds() < plan.back().dueSeconds + 120.0,
                   "serve_open stuck with " << outstanding.size()
                                            << " jobs outstanding");
      if (next < n && clock.seconds() >= plan[next].dueSeconds) {
        const double start = clock.seconds();
        lateMs.push_back((start - plan[next].dueSeconds) * 1e3);
        serve::SubmitResult res;
        {
          const auto span = tracer.scope("serve.submit");
          res = service->submit(jobSpec(plan[next].caseName()));
        }
        submitMs.push_back((clock.seconds() - start) * 1e3);
        if (res.status == serve::SubmitStatus::kAccepted) {
          ids[next] = res.id;
          outstanding.push_back(next);
        } else {
          ++rejected;
        }
        ++next;
        continue;
      }
      {
        const auto span = tracer.scope("serve.snapshot");
        for (std::size_t k = 0; k < outstanding.size();) {
          const std::size_t j = outstanding[k];
          if (service->snapshot(ids[j], &finals[j]) &&
              terminal(finals[j].state)) {
            doneSeconds[j] = clock.seconds();
            outstanding[k] = outstanding.back();
            outstanding.pop_back();
          } else {
            ++k;
          }
        }
      }
      const auto span = tracer.scope("serve.wait");
      double waitS = 1e-3;
      if (next < n) {
        waitS = std::min(waitS, plan[next].dueSeconds - clock.seconds());
      }
      if (waitS > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(waitS));
      }
    }
  }
  loop.wallSeconds = clock.seconds();
  loop.after = LoopCounters::sample();
  service->drain(serve::DrainMode::kFinish);
  const serve::ServiceStats stats = service->stats();

  RunResult out;
  std::vector<double> latencyMs;
  std::vector<double> queueMs;
  std::vector<double> runMs;
  int hits = 0;
  int repeats = 0;
  for (std::size_t j = 0; j < n; ++j) {
    ++out.attempted;
    const serve::JobSnapshot& snap = finals[j];
    if (ids[j].empty() || snap.state != serve::JobState::kDone) {
      ++out.failed;
      out.checkFailures.push_back(
          "job " + plan[j].caseName() + " ended " +
          (ids[j].empty() ? std::string("rejected")
                          : std::string(serve::jobStateName(snap.state))));
      continue;
    }
    const double latency = (doneSeconds[j] - plan[j].dueSeconds) * 1e3;
    latencyMs.push_back(latency);
    queueMs.push_back(latency - snap.wallSeconds * 1e3);
    if (snap.iterationsDone == 0) {
      ++hits;
    } else {
      runMs.push_back(snap.wallSeconds * 1e3);
    }
    if (plan[j].firstIndex >= 0) {
      ++repeats;
      const auto f = static_cast<std::size_t>(plan[j].firstIndex);
      if (snap.maskHash != finals[f].maskHash) {
        out.checkFailures.push_back("repeated job " + plan[j].caseName() +
                                    " returned another mask hash");
      }
    }
  }
  const double lastDone =
      *std::max_element(doneSeconds.begin(), doneSeconds.end());
  setEndToEnd(out, setupSeconds, latencyMs,
              static_cast<double>(latencyMs.size()) /
                  std::max(lastDone, 1e-9));

  if (tracer.enabled()) {
    Report& l = out.layers;
    Report& d = out.details;
    zeroIdleLayers(l);
    l.set("serve.hit_share", static_cast<double>(hits) / count, "ratio");
    l.set("serve.retries", static_cast<double>(stats.retries), "count");
    l.set("serve.rejected", static_cast<double>(stats.rejected), "count");
    l.set("cache.paste_share", static_cast<double>(repeats) / count, "ratio");
    l.set("cache.hit_rate", stats.cache.hitRate(), "ratio");
    l.set("cache.misses", static_cast<double>(stats.cache.misses), "count");
    l.set("cache.inserts", static_cast<double>(stats.cache.inserts), "count");
    d.set("serve.submit_ms_p50", median(submitMs), "ms");
    d.set("serve.submit_ms_max", quantile(submitMs, 1.0), "ms");
    d.set("serve.queue_ms_p50", median(queueMs), "ms");
    d.set("serve.run_ms_p50", median(runMs), "ms");
    d.set("serve.gen_late_ms", quantile(lateMs, 1.0), "ms");

    // The first job's clip solved directly on a fresh simulator must give
    // the mask the service returned; the shared layer probes run on it.
    LithoSimulator sim(clipOptics(kServePixelNm));
    {
      const auto span = tracer.scope("litho.kernels");
      sim.warmKernels(kFocuses);
    }
    const Layout clip = buildRandomClip(plan.front().clipSeed);
    const BitGrid target = rasterize(clip, kServePixelNm);
    std::vector<double> iterationMs;
    const std::vector<Solve> solves{solveClip(
        sim, clip, target, OpcMethod::kMosaicFast, tracer, &iterationMs)};
    checkSolves(out, solves, false);
    if (!ids.front().empty() &&
        solves.front().hash != finals.front().maskHash) {
      out.checkFailures.push_back(
          "serve and a direct solve of the same clip disagree");
    }
    probeLayers(sim, target, solves.front().mask, tracer);
    const double speedup = measureSpeedup([&] {
      (void)runOpc(sim, target, OpcMethod::kMosaicFast);
    });
    setTraceLayers(out, tracer, loop, solves, iterationMs,
                   static_cast<int>(pupilLattice(sim.optics()).size()),
                   speedup);
  }
  if (rejected > 0 || stats.rejected > 0) {
    out.checkFailures.push_back("serve rejected submissions");
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"clip_cold", "suite_warm",
                                              "chip_mix", "serve_open"};
  return names;
}

RunResult runWorkload(const RunOptions& opt, Tracer& tracer) {
  fs::create_directories(opt.workDir);
  RunResult out;
  if (opt.workload == "clip_cold") {
    out = runClipCold(opt, tracer);
  } else if (opt.workload == "suite_warm") {
    out = runSuiteWarm(opt, tracer);
  } else if (opt.workload == "chip_mix") {
    out = runChipMix(opt, tracer);
  } else if (opt.workload == "serve_open") {
    out = runServeOpen(opt, tracer);
  } else {
    throw InvalidArgument("unknown workload: " + opt.workload);
  }
  fs::remove_all(opt.workDir);
  return out;
}

double probeServeCapacity(std::uint64_t seed, double seconds,
                          const std::string& workDir) {
  constexpr int kInFlight = 4;  // two per worker keeps both busy
  const std::vector<PlannedJob> plan = planJobs(seed, 100000, 1.0);
  auto service = startService(workDir + "/capacity", kInFlight);
  std::vector<std::string> inFlight;
  std::size_t next = 0;
  int done = 0;
  WallTimer clock;
  while (clock.seconds() < seconds) {
    while (inFlight.size() < static_cast<std::size_t>(kInFlight)) {
      const serve::SubmitResult res =
          service->submit(jobSpec(plan[next++].caseName()));
      MOSAIC_CHECK(res.status == serve::SubmitStatus::kAccepted,
                   "capacity probe submit rejected: " << res.message);
      inFlight.push_back(res.id);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t k = 0; k < inFlight.size();) {
      serve::JobSnapshot snap;
      if (service->snapshot(inFlight[k], &snap) && terminal(snap.state)) {
        MOSAIC_CHECK(snap.state == serve::JobState::kDone,
                     "capacity probe job ended "
                         << serve::jobStateName(snap.state));
        ++done;
        inFlight[k] = inFlight.back();
        inFlight.pop_back();
      } else {
        ++k;
      }
    }
  }
  const double elapsed = clock.seconds();
  service->drain(serve::DrainMode::kFinish);
  service.reset();
  fs::remove_all(workDir);
  return done / elapsed;
}

}  // namespace mosaic::e2e
