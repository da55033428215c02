#pragma once
/// \file tcc.hpp
/// Hopkins Transmission Cross Coefficient (TCC) construction and its
/// eigendecomposition into SOCS kernels (paper Sec. 2, Eq. 1-2). This is
/// the substitute for the contest's pre-supplied kernel files: instead of
/// reading opaque kernel blobs we derive them from first principles
/// (annular source, circular pupil, defocus aberration).

#include <vector>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"
#include "math/fft.hpp"

namespace mosaic {

/// A frequency lattice site inside the pupil support.
struct PupilSample {
  int row = 0;   ///< FFT row index (wrapped)
  int col = 0;   ///< FFT col index (wrapped)
  double fx = 0; ///< signed spatial frequency, cycles/nm
  double fy = 0;
};

/// Largest |row| or |col| lattice index of the pupil lattice,
/// floor(cutoff / freqStep): 7 for a 1024-nm clip, 14 for a 2048-nm
/// window, at every pitch. Every SOCS kernel lives within it.
int pupilRadius(const OpticsConfig& optics);

/// Enumerate the FFT lattice sites whose spatial frequency lies within the
/// pupil cutoff NA/lambda.
std::vector<PupilSample> pupilLattice(const OpticsConfig& optics);

/// Build the TCC matrix restricted to the pupil lattice:
/// T(p, q) = (1/S) * sum_s J(s) P(s + f_p) conj(P(s + f_q)),
/// with J a uniform annular source sampled `sourceOversample` times finer
/// than the pupil lattice. Row-major n x n Hermitian, n = lattice size.
/// Each entry adds its products in source order from +0, bit for bit the
/// per-source loop of tests/reference.hpp.
/// \param build the target the accumulation runs compiled for; both give
///        the same bits. The program always takes the host's; tests run
///        the other too (kAvx2 needs exec::cpuHasAvx2()).
std::vector<std::complex<double>> buildTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice,
    FftBuild build = hostFftBuild());

/// Decompose the TCC into the top `optics.kernelCount` SOCS kernels and
/// normalize so the open-frame (mask == 1 everywhere) intensity is exactly
/// 1.0. Also fills the combined kernel sum_k w_k h_k (Eq. 21), normalized
/// so its open-frame field magnitude is 1.
KernelSet computeKernelSet(const OpticsConfig& optics, double focusNm);

}  // namespace mosaic
