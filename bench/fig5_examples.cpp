/// \file fig5_examples.cpp
/// Reproduces paper Fig. 5: the result gallery for B4 and B6 under
/// MOSAIC_exact -- target, OPC mask, nominal printed image and PV band --
/// dumped as PGM images, plus the EPE sample-point diagnostics of Fig. 3.

#include <cstdio>
#include <exception>
#include <string>

#include "eval/epe.hpp"
#include "eval/evaluator.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/mosaic.hpp"
#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/image_io.hpp"
#include "support/log.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  int pixel = 4;
  int iterations = 20;
  std::string cases = "4,6";
  std::string outDir = "/tmp";
  std::string logLevel = "warn";

  CliParser cli("fig5_examples",
                "Reproduce paper Fig. 5 (OPC result gallery for B4/B6)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addInt("iters", &iterations, "optimizer iterations");
  cli.addString("cases", &cases, "comma-separated testcase indices");
  cli.addString("out", &outDir, "output directory");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));

    OpticsConfig optics;
    optics.pixelNm = pixel;
    LithoSimulator sim(optics);
    const int n = sim.gridSize();

    std::printf("=== Fig. 5: MOSAIC_exact result gallery ===\n");
    std::string rest = cases;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      const int caseIdx = std::stoi(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);

      const Layout layout = buildTestcase(caseIdx);
      const BitGrid target = rasterize(layout, pixel);

      IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicExact, pixel);
      cfg.maxIterations = iterations;
      const OpcResult res = runOpc(sim, target, OpcMethod::kMosaicExact, &cfg);
      const RealGrid binMask = toReal(res.maskBinary);
      const MaskPrints prints =
          printMask(sim, binMask, EvalConfig{}.corners);
      const CaseEvaluation ev =
          evaluatePrints(prints, target, pixel, res.runtimeSec);

      auto dump = [&](const std::string& tag, const RealGrid& img) {
        const std::string path =
            outDir + "/fig5_" + layout.name + "_" + tag + ".pgm";
        writePgm(path, {img.data(), img.size()}, n, n);
      };
      dump("target", toReal(target));
      dump("mask", binMask);
      dump("nominal", toReal(prints.nominal));
      dump("pvband", toReal(prints.pvBand.band));

      // Fig. 3 style diagnostics: EPE samples on this clip.
      const auto samples = extractSamples(target, 40 / pixel);
      const auto epe =
          measureEpe(prints.nominal, target, samples, pixel, 15.0);

      std::printf(
          "%s: %d EPE samples, %d violations, mean |EPE| %.1f nm, max "
          "%.1f nm, PVB %.0f nm^2, score %.0f -> images fig5_%s_*.pgm\n",
          layout.name.c_str(), static_cast<int>(samples.size()),
          epe.violations, epe.meanAbsEpeNm, epe.maxAbsEpeNm, ev.pvbandAreaNm2,
          ev.score, layout.name.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig5_examples failed: %s\n", e.what());
    return 1;
  }
}
