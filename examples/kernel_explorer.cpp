/// \file kernel_explorer.cpp
/// Inspect the SOCS decomposition of the optical system (paper Sec. 2):
/// prints the kernel weight spectrum for the nominal and defocused systems
/// and dumps the dominant kernels' spatial intensity as PGM images.
///
/// Run:  ./kernel_explorer --pixel 4 --out /tmp

#include <cmath>
#include <cstdio>
#include <exception>
#include <numeric>
#include <string>

#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/fft.hpp"
#include "support/cli.hpp"
#include "support/image_io.hpp"
#include "support/log.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  int pixel = 4;
  int dumpKernels = 4;
  std::string outDir = "/tmp";
  std::string logLevel = "info";

  CliParser cli("kernel_explorer", "inspect the SOCS kernel decomposition");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addInt("dump", &dumpKernels, "number of kernels to dump as images");
  cli.addString("out", &outDir, "output directory");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));

    OpticsConfig optics;
    optics.pixelNm = pixel;
    LithoSimulator sim(optics);

    for (double focus : {0.0, 25.0}) {
      const KernelSet& set = sim.kernels(focus);
      std::printf("focus %.0f nm: %d kernels, weights:\n", focus,
                  set.kernelCount());
      const double total =
          std::accumulate(set.weights.begin(), set.weights.end(), 0.0);
      double running = 0.0;
      for (int k = 0; k < set.kernelCount(); ++k) {
        running += set.weights[static_cast<std::size_t>(k)];
        std::printf("  k=%2d  w=%.5f  cumulative %.1f%%\n", k,
                    set.weights[static_cast<std::size_t>(k)],
                    100.0 * running / total);
      }

      // Dump |h_k|^2 in the spatial domain (fftshifted for viewing).
      const int n = sim.gridSize();
      const Fft2d& fft = fft2dFor(n, n);
      for (int k = 0; k < std::min(dumpKernels, set.kernelCount()); ++k) {
        // The kernel's lattice samples at their sites on the pixel grid.
        ComplexGrid spatial(n, n);
        for (std::size_t s = 0; s < set.lattice.size(); ++s) {
          spatial((set.lattice[s].row % n + n) % n,
                  (set.lattice[s].col % n + n) % n) =
              set.kernels[static_cast<std::size_t>(k)][s];
        }
        fft.inverse(spatial);
        RealGrid mag(n, n);
        double peak = 0.0;
        for (int r = 0; r < n; ++r) {
          for (int c = 0; c < n; ++c) {
            // fftshift so the kernel center lands mid-image.
            const int sr = (r + n / 2) % n;
            const int sc = (c + n / 2) % n;
            mag(sr, sc) = std::norm(spatial(r, c));
            peak = std::max(peak, mag(sr, sc));
          }
        }
        const std::string path = outDir + "/kernel_f" +
                                 std::to_string(static_cast<int>(focus)) +
                                 "_k" + std::to_string(k) + ".pgm";
        writePgm(path, {mag.data(), mag.size()}, n, n, 0.0, peak);
        std::printf("wrote %s\n", path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_explorer failed: %s\n", e.what());
    return 1;
  }
}
