#include "litho/kernel_cache.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "support/atomic_file.hpp"
#include "support/binary_io.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace {

constexpr std::uint32_t kMagic = 0x4d4f534bu;  // "MOSK"
constexpr std::uint32_t kVersion = 1;

void writeSparse(BinaryWriter& out, const SparseSpectrum& s) {
  out.put(static_cast<std::uint32_t>(s.sampleCount()));
  for (std::size_t i = 0; i < s.sampleCount(); ++i) {
    out.put(static_cast<std::uint32_t>(s.flatIndex[i]));
    out.put(s.value[i].real());
    out.put(s.value[i].imag());
  }
}

SparseSpectrum readSparse(BinaryReader& in, int gridSize) {
  SparseSpectrum s;
  s.gridSize = gridSize;
  const auto count = in.get<std::uint32_t>();
  MOSAIC_CHECK(count <= static_cast<std::uint32_t>(gridSize) * gridSize,
               "kernel cache: sample count exceeds grid");
  s.flatIndex.reserve(count);
  s.value.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto flat = in.get<std::uint32_t>();
    MOSAIC_CHECK(flat < static_cast<std::uint32_t>(gridSize) * gridSize,
                 "kernel cache: sample index out of range");
    s.flatIndex.push_back(static_cast<int>(flat));
    const auto re = in.get<double>();
    const auto im = in.get<double>();
    s.value.emplace_back(re, im);
  }
  return s;
}

}  // namespace

void saveKernelSet(const std::string& path, const KernelSet& set) {
  MOSAIC_CHECK(set.gridSize > 0 && !set.kernels.empty(),
               "cannot save an empty kernel set");
  // Atomic publication: a concurrent reader (another process sharing the
  // cache directory) sees the old file or the whole new one, and a writer
  // killed mid-file leaves no torn cache entry.
  writeFileAtomically(path, [&](std::ostream& stream) {
    BinaryWriter out(stream);
    out.put(kMagic);
    out.put(kVersion);
    out.put(static_cast<std::uint32_t>(set.gridSize));
    out.put(set.focusNm);
    out.put(static_cast<std::uint32_t>(set.kernels.size()));
    for (std::size_t k = 0; k < set.kernels.size(); ++k) {
      out.put(set.weights[k]);
      writeSparse(out, set.kernels[k]);
    }
    writeSparse(out, set.combined);
  });
}

KernelSet loadKernelSet(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  MOSAIC_CHECK(file.good(), "cannot open kernel cache: " << path);
  BinaryReader in(file, "kernel cache");
  MOSAIC_CHECK(in.get<std::uint32_t>() == kMagic,
               "kernel cache: bad magic in " << path);
  MOSAIC_CHECK(in.get<std::uint32_t>() == kVersion,
               "kernel cache: unsupported version in " << path);
  KernelSet set;
  set.gridSize = static_cast<int>(in.get<std::uint32_t>());
  MOSAIC_CHECK(set.gridSize > 0 && set.gridSize <= 1 << 15,
               "kernel cache: implausible grid size");
  set.focusNm = in.get<double>();
  const auto count = in.get<std::uint32_t>();
  MOSAIC_CHECK(count >= 1 && count <= 4096,
               "kernel cache: implausible kernel count");
  set.weights.reserve(count);
  set.kernels.reserve(count);
  for (std::uint32_t k = 0; k < count; ++k) {
    set.weights.push_back(in.get<double>());
    set.kernels.push_back(readSparse(in, set.gridSize));
  }
  set.combined = readSparse(in, set.gridSize);
  in.expectEnd();
  return set;
}

std::uint64_t opticsParameterDigest(const OpticsConfig& optics) {
  Fnv1a h;
  h.mix(optics.wavelengthNm);
  h.mix(optics.na);
  h.mix(optics.sigmaInner);
  h.mix(optics.sigmaOuter);
  h.mix(optics.immersionIndex);
  h.mix(optics.kernelCount);
  h.mix(optics.sourceOversample);
  h.mix(optics.clipSizeNm);  // sets the pupil lattice, hence every kernel
  h.mix(optics.aberrations.astigmatism0);
  h.mix(optics.aberrations.astigmatism45);
  h.mix(optics.aberrations.comaX);
  h.mix(optics.aberrations.comaY);
  h.mix(optics.aberrations.spherical);
  return h.digest();
}

std::string opticsParameterHash(const OpticsConfig& optics) {
  return Fnv1a::hashHex(opticsParameterDigest(optics));
}

std::string kernelCacheName(const OpticsConfig& optics, double focusNm) {
  return "kernels_g" + std::to_string(optics.gridSize()) + "_f" +
         std::to_string(static_cast<long long>(std::llround(focusNm * 10))) +
         "_o" + opticsParameterHash(optics) + ".bin";
}

}  // namespace mosaic
