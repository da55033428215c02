#pragma once
/// \file fft.hpp
/// The program's one FFT. Every 2-D transform runs the passes of fft.cpp:
/// the mask spectrum, the resist blur, and the SOCS engine's coarse-grid
/// transforms and band-pruned pixel-grid transforms (math/backend). This
/// is the computational core of the lithography simulator: every aerial
/// image and every gradient term is a handful of these transforms (paper
/// Sec. 3.5).
///
/// Engine layout (docs/performance.md):
///  - The 1-D pass (FftPlan) is iterative radix-2 decimation in time with
///    consecutive stages fused into radix-4 sweeps; rows run it in place.
///  - The column pass runs the same algorithm over row indices, where each
///    butterfly combines whole rows element-wise ("row-vector
///    butterflies"): memory access stays contiguous, and there is no
///    per-column gather/scatter and no per-call scratch. A pass can skip
///    rows flagged dead and can stop at a column limit.
///  - Each pass has a portable build (the baseline target, no FMA) and an
///    AVX2+FMA build. hostFftBuild() picks one once from the CPU, and every
///    plan in the program runs it.
///  - Real input (masks, gradients) packs two real rows into one complex
///    transform and only runs the column pass on the non-redundant half
///    of the spectrum; the other half is reconstructed from Hermitian
///    symmetry. Same trick in reverse for real output (gaussianBlur).
///  - The band-pruned real transforms go further: their column pass stops
///    at the band's last column, and the inverse's also skips the rows
///    outside the band, so a band-limited image or gradient crosses the
///    pixel grid for about the cost of its row pass.
///
/// tests/reference.hpp holds the direct DFT this engine is tested against.

#include <complex>
#include <cstdint>
#include <vector>

#include "math/grid.hpp"

namespace mosaic {
namespace exec {

/// Runtime AVX2+FMA detection (x86 only; false elsewhere). Picks the FFT
/// build (hostFftBuild) and the Jacobi sweep's (math/eigen).
bool cpuHasAvx2();

}  // namespace exec

/// The two builds of the FFT passes. They run the same algorithm and agree
/// to roundoff; the AVX2 build fuses the twiddle multiplies with FMA.
enum class FftBuild { kPortable, kAvx2 };

/// The build every plan runs on this CPU, chosen once: kAvx2 when
/// exec::cpuHasAvx2(), else kPortable.
FftBuild hostFftBuild();

/// "avx2" or "portable", the names jacobiSweepKernel() uses.
const char* fftBuildName(FftBuild build);

/// Iterative radix-2 decimation-in-time FFT plan for a fixed power-of-two
/// size. Precomputes the bit-reversal permutation and twiddle factors so
/// repeated transforms only pay the butterfly cost.
class FftPlan {
 public:
  /// \param n transform length; must be a power of two >= 1.
  /// \param build the pass build. The program always takes the host's;
  ///        tests construct the other to check both (kAvx2 needs
  ///        exec::cpuHasAvx2()).
  explicit FftPlan(std::size_t n, FftBuild build = hostFftBuild());

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] FftBuild build() const { return build_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2 pi i jk / n).
  void forward(std::complex<double>* data) const;

  /// In-place inverse DFT including the 1/n normalization.
  void inverse(std::complex<double>* data) const;

  [[nodiscard]] static bool isPowerOfTwo(std::size_t n) {
    return n != 0 && (n & (n - 1)) == 0;
  }

 private:
  friend class Fft2d;  // its column pass runs this plan over whole rows

  void transform(std::complex<double>* data, bool invert) const;

  std::size_t n_;
  FftBuild build_;
  std::vector<std::size_t> bitrev_;
  /// Twiddles for the forward transform, stage-packed: the factors for the
  /// stage with half-length h live at [h, 2h).
  std::vector<std::complex<double>> twiddle_;
};

/// 2-D FFT over a ComplexGrid (rows then columns). Both dimensions must be
/// powers of two. Plans are cached per instance, so reuse one Fft2d per
/// grid shape in hot loops (or go through fft2dFor). All member functions
/// are const and keep no shared mutable scratch, so one instance is safe
/// to use concurrently from the tile scheduler's worker threads.
class Fft2d {
 public:
  /// \param build as for FftPlan: the program always takes the host's.
  Fft2d(int rows, int cols, FftBuild build = hostFftBuild());

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] FftBuild build() const { return rowPlan_.build(); }

  /// In-place forward 2-D DFT.
  void forward(ComplexGrid& grid) const;
  /// In-place inverse 2-D DFT (normalized by 1/(rows*cols)).
  void inverse(ComplexGrid& grid) const;

  /// Forward transform of a real grid, exploiting Hermitian symmetry
  /// (about half the work of the complex path). Returns the full
  /// rows x cols spectrum.
  [[nodiscard]] ComplexGrid forwardReal(const RealGrid& grid) const;

  /// Same, writing into a caller-provided grid.
  void forwardRealInto(const RealGrid& grid, ComplexGrid& out) const;

  /// Inverse transform of a Hermitian spectrum straight to its real
  /// result, exploiting symmetry like forwardRealInto. Only columns
  /// [0, cols/2] of `spectrum` are read; the grid is clobbered (it is
  /// used as workspace for the column pass). The imaginary part of the
  /// mathematical result is discarded, so the caller is responsible for
  /// `spectrum` actually being (half of) a Hermitian spectrum.
  void inverseRealInto(ComplexGrid& spectrum, RealGrid& out) const;

  /// In-place 2-D DFT with no span or fail point: the SOCS engine's
  /// coarse-grid transforms (math/backend). `live` is null (every row
  /// live) or a rows()-long flag per row. The content of a row flagged 0
  /// is ignored and taken as zero: the row pass skips it, and the column
  /// pass skips every butterfly whose rows are all dead, zeroes a dead row
  /// when a butterfly first combines it with a live one, and flags the
  /// rows it writes. Zeros transform to zeros, so the result is exactly
  /// the unpruned one.
  void transform(ComplexGrid& grid, bool invert, std::uint8_t* live) const;

  /// Columns a band spectrum of this plan holds: band + 1 (at most
  /// cols/2 + 1) rounded up to whole AVX2 vectors, at most cols().
  [[nodiscard]] int bandColumns(int band) const;

  /// Columns [0, bandColumns(band)) of every row of a real grid's
  /// spectrum: forwardRealInto with the column pass stopped at the band,
  /// bit for bit the same values on columns [0, min(band, cols/2)].
  /// `out` is rows() x bandColumns(band); it need not be cleared.
  void forwardRealBand(const RealGrid& grid, int band, ComplexGrid& out) const;

  /// The real grid whose spectrum is Hermitian and zero outside the band
  /// |row|, |col| <= band (signed frequencies; a band of at least half an
  /// axis is the whole axis). `spectrum` is rows() x bandColumns(band)
  /// and holds columns [0, min(band, cols/2)] of that spectrum; rows
  /// outside the band are never read, and the grid is clobbered.
  /// inverseRealInto with the column pass stopped at the band's columns
  /// and pruned to its live rows: bit for bit the values inverseRealInto
  /// gives for the zero-padded spectrum (to roundoff on a grid with a
  /// side of 1, where both take the complex path).
  void inverseRealBand(ComplexGrid& spectrum, int band, RealGrid& out) const;

 private:
  /// The 1-D pass over every row with live[r] (every row if live is null).
  void rowPass(ComplexGrid& grid, bool invert, const std::uint8_t* live) const;
  /// The column pass over columns [0, colLimit) of `grid`, which has
  /// rows() rows and at least colLimit columns.
  void colPass(ComplexGrid& grid, bool invert, std::uint8_t* live,
               int colLimit) const;
  /// The real forward paths' row pass: columns [0, width) of the row
  /// spectra of `grid`, two rows per complex transform.
  void realRowPass(const RealGrid& grid, ComplexGrid& out, int width) const;
  /// The real inverse paths' row pass over rows whose Hermitian half is
  /// held in columns [0, last] (zero beyond), two rows per transform.
  void realRowPassInverse(const ComplexGrid& spectrum, int last,
                          RealGrid& out) const;

  int rows_;
  int cols_;
  FftPlan rowPlan_;
  FftPlan colPlan_;
};

/// Shared plan cache: returns an Fft2d for (rows, cols) on `build`,
/// constructing it on first use. Lookups of already-constructed plans are
/// lock-free (an atomic walk of an append-only list), so concurrent tile
/// workers never contend here; only first-time construction of a new
/// shape takes a mutex. The returned reference stays valid for the
/// process lifetime. The program always takes the host's build; tests
/// ask for the other to run both (kAvx2 needs exec::cpuHasAvx2()).
const Fft2d& fft2dFor(int rows, int cols, FftBuild build = hostFftBuild());

}  // namespace mosaic
