#pragma once
/// \file kernel_cache.hpp
/// Binary serialization of SOCS kernel sets. The TCC eigendecomposition
/// costs ~1 s per focus condition; persisting the result makes repeated
/// CLI invocations and CI runs start instantly. The format is a
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

/// Deterministic cache filename covering *every* optical parameter, e.g.
/// "kernels_g256_f250_o1a2b3c4d5e6f708.bin". The trailing token is an
/// FNV-1a hash over wavelength, NA, source sigmas, immersion index,
/// kernel count, source oversampling and the Zernike aberration vector,
/// so kernel sets computed under different optics can never collide with
/// a stale cache file. This is the key the simulator's disk cache uses.
std::string kernelCacheName(const OpticsConfig& optics, double focusNm);

/// The optics-parameter hash used by the cache name (16 lowercase hex
/// digits); exposed for tests and external cache tooling.
std::string opticsParameterHash(const OpticsConfig& optics);

/// Raw 64-bit form of opticsParameterHash, for callers that fold it into
/// larger keys (the pattern-library fingerprint) instead of printing it.
std::uint64_t opticsParameterDigest(const OpticsConfig& optics);

}  // namespace mosaic
