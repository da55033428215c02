#pragma once
/// \file kernel_cache.hpp
/// Binary serialization of SOCS kernel sets. Building one costs a few
/// hundred ms per focus for a 1024 nm clip and a few seconds for a 2048 nm
/// chip window (docs/performance.md, "Kernel construction"); persisting
/// the result lets repeated chip runs skip it. The format is a
/// little-endian private binary with a magic/version header; files are
/// validated on load and rejected on any mismatch.

#include <cstdint>
#include <string>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"

namespace mosaic {

/// Write a kernel set to a binary file. The bytes go to a temp file in
/// the same directory that is then renamed over `path`, so readers never
/// see a torn file.
void saveKernelSet(const std::string& path, const KernelSet& set);

/// Read a kernel set back. Throws InvalidArgument on malformed, truncated
/// or over-long files and on version mismatch.
KernelSet loadKernelSet(const std::string& path);

/// Deterministic cache filename, e.g. "kernels_g256_f250_o1a2b3c4d5e6f708.bin":
/// the grid size, the focus rounded to 0.1 nm, and an FNV-1a hash over
/// wavelength, NA, source sigmas, immersion index, kernel count, source
/// oversampling, clip size (which sets the pupil lattice) and the Zernike
/// aberration vector. This is the key the simulator's disk cache uses.
/// Because the focus is rounded, two requests can share a name; the
/// simulator therefore also checks a loaded set's focus, grid size and
/// per-kernel sample count and recomputes on any mismatch.
std::string kernelCacheName(const OpticsConfig& optics, double focusNm);

/// The optics-parameter hash used by the cache name (16 lowercase hex
/// digits); exposed for tests and external cache tooling.
std::string opticsParameterHash(const OpticsConfig& optics);

/// Raw 64-bit form of opticsParameterHash, for callers that fold it into
/// larger keys (the pattern-library fingerprint) instead of printing it.
std::uint64_t opticsParameterDigest(const OpticsConfig& optics);

}  // namespace mosaic
