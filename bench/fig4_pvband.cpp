/// \file fig4_pvband.cpp
/// Reproduces paper Fig. 4: the PV band as the boolean composition of the
/// printed images across process corners. Prints the per-corner printed
/// area and the resulting band, and dumps the images as PGM files.

#include <cstdio>
#include <exception>
#include <string>

#include "eval/pvband.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/baselines.hpp"
#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/image_io.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  int caseIndex = 4;
  int pixel = 4;
  std::string outDir = "/tmp";
  std::string logLevel = "warn";

  CliParser cli("fig4_pvband", "Reproduce paper Fig. 4 (PV band assembly)");
  cli.addInt("case", &caseIndex, "testcase index (1..10)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addString("out", &outDir, "output directory for PGM dumps");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));

    OpticsConfig optics;
    optics.pixelNm = pixel;
    LithoSimulator sim(optics);
    const Layout layout = buildTestcase(caseIndex);
    const BitGrid target = rasterize(layout, pixel);
    const RealGrid mask = noOpcMask(target);

    const auto corners = evaluationCorners();
    TextTable table;
    table.setHeader({"corner", "focus(nm)", "dose", "printed px",
                     "vs nominal +", "vs nominal -"});
    const exec::LatticeValues spectrum = sim.maskSpectrum(mask);
    const BitGrid nominal =
        sim.printBinary(sim.aerialFromSpectrum(spectrum, nominalCorner()));
    const int n = sim.gridSize();
    int idx = 0;
    for (const auto& corner : corners) {
      const BitGrid print =
          sim.printBinary(sim.aerialFromSpectrum(spectrum, corner));
      table.addRow({"(" + std::string(1, static_cast<char>('a' + idx)) + ")",
                    TextTable::num(corner.focusNm, 0),
                    TextTable::num(corner.dose, 2),
                    TextTable::integer(countSet(print)),
                    TextTable::integer(countSet(bitSub(print, nominal))),
                    TextTable::integer(countSet(bitSub(nominal, print)))});
      writePgm(outDir + "/fig4_corner_" + std::to_string(idx) + ".pgm",
               {toReal(print).data(), static_cast<std::size_t>(n) * n}, n, n);
      ++idx;
    }

    const PvBandResult pvb = computePvBand(sim, mask, corners);
    writePgm(outDir + "/fig4_band.pgm",
             {toReal(pvb.band).data(), static_cast<std::size_t>(n) * n}, n, n);

    std::printf("=== Fig. 4: PV band construction on %s ===\n",
                layout.name.c_str());
    std::printf("%s\n", table.render().c_str());
    std::printf("outer (union) px: %lld, inner (intersection) px: %lld\n",
                countSet(pvb.outer), countSet(pvb.inner));
    std::printf("PV band: %lld px = %.0f nm^2 (images in %s/fig4_*.pgm)\n",
                pvb.bandPixels, pvb.bandAreaNm2, outDir.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig4_pvband failed: %s\n", e.what());
    return 1;
  }
}
