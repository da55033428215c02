#pragma once
/// \file scratch.hpp
/// Per-thread reusable grid pool. The inner ILT loop needs a handful of
/// temporary grids per iteration (the SOCS engine's coarse fields, sums
/// and band spectra in math/backend, the band spectrum of maskSpectrum,
/// the blur spectrum in gaussianBlur); allocating them per call churns
/// the allocator and, for the full-size ones, the page tables.
/// A Lease borrows a grid of the requested shape from a thread-local free
/// list and returns it on destruction, so steady-state iterations run
/// allocation-free. Pool hits/misses are exported as the telemetry
/// counters scratch.hit / scratch.miss (docs/performance.md).
///
/// Leased grids are NOT zeroed: their contents are whatever the previous
/// user left behind. Callers must fully overwrite or fill() them.
/// Thread-safety: leases are cheap thread-local operations; a Lease must
/// be released on the thread that acquired it (keep leases function-local
/// and don't move them across threads).

#include <complex>
#include <memory>
#include <type_traits>

#include "math/grid.hpp"

namespace mosaic {
namespace scratch {

namespace detail {
std::unique_ptr<RealGrid> acquireReal(int rows, int cols);
void releaseReal(std::unique_ptr<RealGrid> grid);
std::unique_ptr<ComplexGrid> acquireComplex(int rows, int cols);
void releaseComplex(std::unique_ptr<ComplexGrid> grid);
}  // namespace detail

/// RAII lease of a pooled grid (contents unspecified on acquisition).
template <typename GridT>
class Lease {
  static_assert(std::is_same_v<GridT, RealGrid> ||
                    std::is_same_v<GridT, ComplexGrid>,
                "scratch pool serves RealGrid and ComplexGrid only");

 public:
  Lease(int rows, int cols) {
    if constexpr (std::is_same_v<GridT, RealGrid>) {
      grid_ = detail::acquireReal(rows, cols);
    } else {
      grid_ = detail::acquireComplex(rows, cols);
    }
  }
  ~Lease() { release(); }

  Lease(Lease&& other) noexcept : grid_(std::move(other.grid_)) {}
  Lease& operator=(Lease&& other) noexcept {
    if (this != &other) {
      release();
      grid_ = std::move(other.grid_);
    }
    return *this;
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  GridT& operator*() { return *grid_; }
  GridT* operator->() { return grid_.get(); }
  [[nodiscard]] GridT& grid() { return *grid_; }

 private:
  void release() {
    if (!grid_) return;
    if constexpr (std::is_same_v<GridT, RealGrid>) {
      detail::releaseReal(std::move(grid_));
    } else {
      detail::releaseComplex(std::move(grid_));
    }
  }
  std::unique_ptr<GridT> grid_;
};

using RealLease = Lease<RealGrid>;
using ComplexLease = Lease<ComplexGrid>;

/// Drop every grid cached by the calling thread (tests / memory pressure,
/// worker-thread teardown — parallelFor workers run this automatically
/// via registerWorkerTeardown; serve workers call it on loop exit).
void clearThreadPool();

/// Bytes currently cached across all threads' free lists (leased grids
/// are not counted). Also exported as the scratch.resident_bytes gauge.
long long residentBytes();

}  // namespace scratch
}  // namespace mosaic
