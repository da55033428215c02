#include "litho/simulator.hpp"

#include <algorithm>
#include <utility>

#include "litho/kernel_cache.hpp"
#include "litho/tcc.hpp"
#include "math/backend.hpp"
#include "math/convolution.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace mosaic {

LithoSimulator::LithoSimulator(OpticsConfig optics, ResistModel resist)
    : optics_(optics), resist_(resist), lattice_(pupilLattice(optics_)) {
  MOSAIC_CHECK(resist_.threshold > 0.0 && resist_.threshold < 1.0,
               "resist threshold must be inside (0, 1)");
}

LithoSimulator::KernelEntry& LithoSimulator::kernelEntry(
    double focusNm) const {
  std::lock_guard<std::mutex> lock(kernelMutex_);
  std::shared_ptr<KernelEntry>& slot = kernelCache_[focusNm];
  if (!slot) slot = std::make_shared<KernelEntry>();
  return *slot;
}

void LithoSimulator::computeInto(KernelEntry& entry, double focusNm) const {
  MOSAIC_FAILPOINT("litho.kernel_load");
  std::unique_ptr<KernelSet> set;
  const std::string cachePath =
      cacheDir_.empty()
          ? std::string()
          : cacheDir_ + "/" + kernelCacheName(optics_, focusNm);
  if (!cachePath.empty()) {
    try {
      KernelSet loaded = loadKernelSet(cachePath);
      // The file name rounds the focus, so the file's exact focus and its
      // lattice, coordinate for coordinate, decide whether it holds the
      // set computeKernelSet would build for this request.
      if (loaded.focusNm == focusNm && loaded.lattice == lattice_) {
        set = std::make_unique<KernelSet>(std::move(loaded));
        LOG_INFO("loaded kernel cache " << cachePath);
      } else {
        LOG_INFO("kernel cache " << cachePath
                                 << " holds another kernel set; recomputing");
      }
    } catch (const Error&) {
      // miss or stale file -- recompute below
    }
  }
  if (!set) {
    MOSAIC_SPAN("litho.kernels.compute");
    WallTimer timer;
    set = std::make_unique<KernelSet>(computeKernelSet(optics_, focusNm));
    LOG_INFO("computed " << set->kernels.size() << " SOCS kernels for focus "
                         << focusNm << " nm in " << timer.seconds() << " s");
    if (!cachePath.empty()) {
      try {
        saveKernelSet(cachePath, *set);
      } catch (const Error& e) {
        LOG_WARN("could not persist kernel cache: " << e.what());
      }
    }
  }
  entry.set = std::move(set);
}

const KernelSet& LithoSimulator::kernels(double focusNm) const {
  // Two-level scheme: the map mutex only covers finding/creating the
  // per-focus entry; the expensive load/compute runs under that entry's
  // own mutex. Distinct focus values therefore compute concurrently, while
  // duplicate requests for one focus still do the work exactly once. If
  // the compute throws, the entry stays empty and the next caller retries
  // (a plain mutex rather than std::call_once, whose retry-after-throw
  // hangs under ThreadSanitizer's pthread_once).
  //
  // Nothing under this entry mutex may use the executor (parallelFor): a
  // pool wait helps by running any task from the worker's own deque, and
  // a sibling task that needs this same focus would then re-lock the
  // entry on the same thread and deadlock. So computeInto, buildTcc and
  // the eigensolvers stay serial; concurrency comes from building distinct
  // focus values side by side (warmKernels). Pool tasks may call kernels()
  // (imageConditions and the objective's gradient fan-out do) and block
  // here while a sibling builds the same focus.
  KernelEntry& entry = kernelEntry(focusNm);
  std::lock_guard<std::mutex> lock(entry.mutex);
  if (!entry.set) computeInto(entry, focusNm);
  return *entry.set;
}

void LithoSimulator::warmKernels(
    const std::vector<double>& focusValuesNm) const {
  std::vector<double> focuses = focusValuesNm;
  std::sort(focuses.begin(), focuses.end());
  focuses.erase(std::unique(focuses.begin(), focuses.end()), focuses.end());
  parallelFor(0, focuses.size(),
              [&](std::size_t i) { (void)kernels(focuses[i]); });
}

exec::LatticeValues LithoSimulator::maskSpectrum(const RealGrid& mask) const {
  const int n = gridSize();
  MOSAIC_CHECK(mask.rows() == n && mask.cols() == n,
               "mask is " << mask.rows() << "x" << mask.cols()
                          << ", expected " << n << "x" << n);
  MOSAIC_SPAN("litho.mask_spectrum");
  // Counts forward mask FFTs so tests can pin "exactly one spectrum per
  // mask per evaluation" (the PV-band hoist fix in eval/evaluator).
  static telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  spectra.add(1);
  // The lattice's band holds every sample: its non-negative columns come
  // from one band-pruned forward, the negative ones from Hermitian
  // symmetry X(r, -c) = conj(X(-r, c)), each read at the sample's site on
  // this grid.
  const int band = pupilRadius(optics_);
  const Fft2d& fft = fft2dFor(n, n);
  ComplexGrid half(n, fft.bandColumns(band));
  fft.forwardRealBand(mask, band, half);
  const int last = std::min(band, n / 2);
  exec::LatticeValues spectrum;
  spectrum.reserve(lattice_.size());
  for (const PupilSample& p : lattice_) {
    const int r = (p.row % n + n) % n;
    const int c = (p.col % n + n) % n;
    spectrum.push_back(c <= last ? half(r, c)
                                 : std::conj(half((n - r) % n, n - c)));
  }
  return spectrum;
}

RealGrid LithoSimulator::aerial(const RealGrid& mask,
                                const ProcessCorner& corner,
                                int maxKernels) const {
  return aerialFromSpectrum(maskSpectrum(mask), corner, maxKernels);
}

RealGrid LithoSimulator::aerialFromSpectrum(
    const exec::LatticeValues& spectrum, const ProcessCorner& corner,
    int maxKernels) const {
  MOSAIC_CHECK(spectrum.size() == lattice_.size(),
               "spectrum has " << spectrum.size() << " samples, expected "
                               << lattice_.size());
  MOSAIC_SPAN("litho.aerial");
  // Counts SOCS sums so tests can pin "one sum per distinct condition"
  // (imageConditions, used by the objective and the evaluator).
  static telemetry::Counter& sums =
      telemetry::metrics().counter("litho.aerial");
  sums.add(1);
  const KernelSet& set = kernels(corner.focusNm);
  const int count = (maxKernels <= 0)
                        ? set.kernelCount()
                        : std::min(maxKernels, set.kernelCount());
  const int n = gridSize();
  RealGrid intensity(n, n);
  // The dose factor is applied exactly once, inside the SOCS sum; the
  // resist blur below stays outside so it also applies exactly once
  // (regression-tested in tests/test_backend.cpp for dose != 1 combined
  // with blur > 0).
  exec::socsImage(fft2dFor(n, n), set.lattice, spectrum, set.kernels.data(),
                  set.weights.data(), count, corner.dose, intensity);
  if (resist_.diffusionSigmaNm > 0.0) {
    intensity = gaussianBlur(
        intensity, resist_.diffusionSigmaNm / optics_.pixelNm);
  }
  return intensity;
}

void LithoSimulator::imageConditions(
    const exec::LatticeValues& spectrum,
    const std::vector<ProcessCorner>& conditions, int maxKernels,
    const ImageSink& sink) const {
  // Distinct conditions in first-appearance order, each with the indices
  // that ask for it. Lists are short (corner sets, a focus-exposure
  // matrix), so a linear scan.
  std::vector<ProcessCorner> distinct;
  std::vector<std::vector<std::size_t>> users;
  for (std::size_t i = 0; i < conditions.size(); ++i) {
    const auto d = static_cast<std::size_t>(
        std::find(distinct.begin(), distinct.end(), conditions[i]) -
        distinct.begin());
    if (d == distinct.size()) {
      distinct.push_back(conditions[i]);
      users.emplace_back();
    }
    users[d].push_back(i);
  }
  // Tasks call kernels(), which never uses the pool under its entry lock,
  // so a task that waits there cannot deadlock a sibling.
  parallelFor(0, distinct.size(), [&](std::size_t d) {
    const RealGrid image =
        aerialFromSpectrum(spectrum, distinct[d], maxKernels);
    parallelFor(0, users[d].size(),
                [&](std::size_t u) { sink(users[d][u], image); });
  });
}

RealGrid LithoSimulator::printContinuous(const RealGrid& aerialImage) const {
  RealGrid out(aerialImage.rows(), aerialImage.cols());
  for (std::size_t i = 0; i < aerialImage.size(); ++i) {
    out.data()[i] = resist_.sigmoid(aerialImage.data()[i]);
  }
  return out;
}

BitGrid LithoSimulator::printBinary(const RealGrid& aerialImage) const {
  BitGrid out(aerialImage.rows(), aerialImage.cols());
  for (std::size_t i = 0; i < aerialImage.size(); ++i) {
    out.data()[i] = resist_.prints(aerialImage.data()[i]) ? 1u : 0u;
  }
  return out;
}

BitGrid LithoSimulator::print(const RealGrid& mask,
                              const ProcessCorner& corner) const {
  return printBinary(aerial(mask, corner));
}

}  // namespace mosaic
