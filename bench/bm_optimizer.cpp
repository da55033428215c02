/// \file bm_optimizer.cpp
/// Benchmarks a full ILT iteration per method (the unit behind Table 3's
/// runtime comparison) and the contest evaluation pass.

#include <benchmark/benchmark.h>

#include "eval/evaluator.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "suite/testcases.hpp"

namespace {

using namespace mosaic;

struct Env {
  LithoSimulator sim;
  BitGrid target;
  RealGrid mask;

  explicit Env(int pixel)
      : sim([&] {
          OpticsConfig o;
          o.pixelNm = pixel;
          return o;
        }()),
        target(rasterize(buildTestcase(6), pixel)),
        mask(toReal(target)) {
    sim.kernels(0.0);
    sim.kernels(25.0);
  }
};

Env& env() {
  static Env e(4);
  return e;
}

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const auto method = static_cast<OpcMethod>(state.range(0));
  IltConfig cfg = defaultIltConfig(method, 4);
  IltObjective obj(env().sim, env().target, cfg);
  for (auto _ : state) {
    auto eval = obj.evaluate(env().mask, true);
    benchmark::DoNotOptimize(eval.value);
  }
  state.SetLabel(methodName(method));
}
BENCHMARK(BM_ObjectiveEvaluation)
    ->Arg(static_cast<int>(OpcMethod::kMosaicFast))
    ->Arg(static_cast<int>(OpcMethod::kMosaicExact))
    ->Arg(static_cast<int>(OpcMethod::kIltBaseline))
    ->Unit(benchmark::kMillisecond);

void BM_FullOptimization(benchmark::State& state) {
  const int iters = static_cast<int>(state.range(0));
  IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast, 4);
  cfg.maxIterations = iters;
  for (auto _ : state) {
    auto res = runOpc(env().sim, env().target, OpcMethod::kMosaicFast, &cfg);
    benchmark::DoNotOptimize(res.maskBinary.data());
  }
}
BENCHMARK(BM_FullOptimization)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_ContestEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    auto ev = evaluateMask(env().sim, env().mask, env().target, 0.0);
    benchmark::DoNotOptimize(ev.score);
  }
}
BENCHMARK(BM_ContestEvaluation)->Unit(benchmark::kMillisecond);

void BM_PvBandSixCorners(benchmark::State& state) {
  for (auto _ : state) {
    auto pvb = computePvBand(env().sim, env().mask, evaluationCorners());
    benchmark::DoNotOptimize(pvb.bandPixels);
  }
}
BENCHMARK(BM_PvBandSixCorners)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
