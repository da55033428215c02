#pragma once
/// \file simulator.hpp
/// Forward lithography engine (paper Sec. 2, Fig. 1): mask -> aerial image
/// (SOCS) -> printed image (resist model), for any process corner. Kernel
/// sets are computed lazily per focus value and cached.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {

/// Forward lithography simulator.
///
/// A simulation is a mask spectrum and one SOCS sum per condition, each
/// sum a per-kernel inverse FFT on the intensity's coarse Nyquist grid
/// plus one band-pruned inverse onto the pixel grid (math/backend). When
/// evaluating several corners of the same mask, compute the mask spectrum
/// once via maskSpectrum() and image every corner from it in one
/// imageConditions() call, which sums each distinct condition once.
///
/// Thread-safety contract: all const member functions are safe to call
/// concurrently on one shared instance. The lazy per-focus kernel cache
/// serializes only per focus value: each focus has its own entry mutex,
/// held across that focus's build, so two corners with distinct focus
/// values compute their kernel sets concurrently while a second request
/// for the same focus blocks just until the first finishes (the returned
/// KernelSet reference stays valid for the simulator's lifetime). A build
/// that throws leaves its entry empty, and the next request retries. The
/// FFT layer keeps no shared mutable scratch. This is what lets the batch
/// runner, the tile scheduler and imageConditions' own tasks share one
/// simulator — and its kernel sets — across workers. Non-const members
/// (setKernelCacheDir) must not race with concurrent use.
class LithoSimulator {
 public:
  explicit LithoSimulator(OpticsConfig optics, ResistModel resist = {});

  [[nodiscard]] const OpticsConfig& optics() const { return optics_; }
  [[nodiscard]] const ResistModel& resist() const { return resist_; }
  [[nodiscard]] int gridSize() const { return optics_.gridSize(); }

  /// Directory for on-disk kernel caching (io/kernel_cache format). When
  /// set, kernels(focus) first tries to load the cached decomposition and
  /// persists freshly computed ones. Empty (default) disables it. The
  /// cache filename covers the focus and a hash of every optics parameter
  /// but the pitch (source, NA, clip size, aberrations, ...), so settings
  /// changes can never resurrect a stale file, and simulators of one clip
  /// size share a file at every pitch.
  void setKernelCacheDir(std::string dir) { cacheDir_ = std::move(dir); }

  /// Kernel set for a focus offset (computed on first use, then cached).
  /// Safe to call concurrently; see the class thread-safety contract.
  const KernelSet& kernels(double focusNm) const;

  /// Eagerly compute/load the kernel sets for a list of focus values,
  /// the distinct values side by side (one parallelFor over them). Purely
  /// a warm-up: concurrent first use is already correct, but pre-warming
  /// overlaps the serial TCC eigendecompositions instead of paying them
  /// one after the other at first use (the tile scheduler and the CLI call
  /// this before fan-out). Rethrows the first failed computation.
  void warmKernels(const std::vector<double>& focusValuesNm) const;

  /// Spectrum of a real mask at the samples of pupilLattice(optics()),
  /// where the SOCS kernels read it: value s is the pixel-grid DFT at
  /// sample s's site, from one band-pruned forward FFT over |row|, |col|
  /// <= pupilRadius() (litho/tcc.hpp).
  [[nodiscard]] exec::LatticeValues maskSpectrum(const RealGrid& mask) const;

  /// Aerial image I = dose * sum_k w_k |M (x) h_k|^2 (Eq. 2).
  /// \param maxKernels 0 = use all kernels; otherwise truncate the SOCS sum
  ///        (used by the optimizer's cheaper in-loop model).
  [[nodiscard]] RealGrid aerial(const RealGrid& mask,
                                const ProcessCorner& corner,
                                int maxKernels = 0) const;

  /// Same, starting from a precomputed mask spectrum. This is the one SOCS
  /// sum; the `litho.aerial` counter counts its calls.
  [[nodiscard]] RealGrid aerialFromSpectrum(
      const exec::LatticeValues& spectrum, const ProcessCorner& corner,
      int maxKernels = 0) const;

  /// Receives one image of imageConditions: (condition index, image).
  using ImageSink = std::function<void(std::size_t, const RealGrid&)>;

  /// The imaging step for one mask at several process conditions: the
  /// aerialFromSpectrum sum of `spectrum` over `maxKernels` kernels, once
  /// per distinct condition in `conditions`, the distinct sums side by
  /// side on the pool. `sink(i, image)` runs exactly once for every index
  /// i, with the image of conditions[i], inside the task that summed it
  /// (the indices sharing one image run side by side as subtasks); the
  /// image is freed when its task ends, so at most one image per running
  /// task is live. Sinks run concurrently, so each must write only state
  /// of its own index. Each image is the same function of the same inputs
  /// at every worker count. Rethrows the first failed sum or sink.
  void imageConditions(const exec::LatticeValues& spectrum,
                       const std::vector<ProcessCorner>& conditions,
                       int maxKernels, const ImageSink& sink) const;

  /// Continuous printed image Z = sig(I) (Eq. 4).
  [[nodiscard]] RealGrid printContinuous(const RealGrid& aerialImage) const;

  /// Binary printed image via the hard threshold (Eq. 3).
  [[nodiscard]] BitGrid printBinary(const RealGrid& aerialImage) const;

  /// Convenience: mask -> binary print at a corner with the full kernel set.
  [[nodiscard]] BitGrid print(const RealGrid& mask,
                              const ProcessCorner& corner) const;

 private:
  /// One lazily-computed kernel set. Its own mutex gates computation so
  /// the map mutex is never held across computeKernelSet — distinct focus
  /// values proceed in parallel.
  struct KernelEntry {
    std::mutex mutex;
    std::unique_ptr<KernelSet> set;  ///< null until a build succeeds
  };

  KernelEntry& kernelEntry(double focusNm) const;
  void computeInto(KernelEntry& entry, double focusNm) const;

  OpticsConfig optics_;
  ResistModel resist_;
  std::vector<PupilSample> lattice_;  ///< pupilLattice(optics_)
  std::string cacheDir_;
  /// Guards only the map itself (entry lookup/insert), never kernel
  /// computation. Entries are shared_ptrs so references stay stable after
  /// the lock is released.
  mutable std::mutex kernelMutex_;
  mutable std::map<double, std::shared_ptr<KernelEntry>> kernelCache_;
};

}  // namespace mosaic
