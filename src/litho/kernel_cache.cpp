#include "litho/kernel_cache.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/binary_io.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace {

constexpr std::uint32_t kMagic = 0x4d4f534bu;  // "MOSK"
constexpr std::uint32_t kVersion = 2;

void writeValues(BinaryWriter& out, const exec::LatticeValues& values) {
  out.putDoubles(reinterpret_cast<const double*>(values.data()),
                 2 * values.size());
}

/// `samples` values, the vector growing only as they are read: a count
/// that outruns the file ends in a truncation error, not an allocation.
exec::LatticeValues readValues(BinaryReader& in, std::uint32_t samples) {
  exec::LatticeValues values;
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto re = in.get<double>();
    const auto im = in.get<double>();
    values.emplace_back(re, im);
  }
  return values;
}

}  // namespace

void saveKernelSet(const std::string& path, const KernelSet& set) {
  MOSAIC_CHECK(!set.lattice.empty() && !set.kernels.empty(),
               "cannot save an empty kernel set");
  std::ostringstream payload;
  BinaryWriter out(payload);
  out.put(set.focusNm);
  out.put(static_cast<std::uint32_t>(set.lattice.size()));
  for (const PupilSample& p : set.lattice) {
    out.put<std::int32_t>(p.row);
    out.put<std::int32_t>(p.col);
  }
  out.put(static_cast<std::uint32_t>(set.kernels.size()));
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    out.put(set.weights[k]);
    writeValues(out, set.kernels[k]);
  }
  writeValues(out, set.combined);
  const std::string bytes = payload.str();
  // Atomic publication: a concurrent reader (another process sharing the
  // cache directory) sees the old file or the whole new one, and a writer
  // killed mid-file leaves no torn cache entry.
  writeFileAtomically(path, [&](std::ostream& stream) {
    BinaryWriter file(stream);
    file.put(kMagic);
    file.put(kVersion);
    stream.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.put(fnv1a(bytes.data(), bytes.size()));
  });
}

KernelSet loadKernelSet(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  MOSAIC_CHECK(file.good(), "cannot open kernel cache: " << path);
  BinaryReader header(file, "kernel cache");
  if (header.get<std::uint32_t>() != kMagic) header.fail("bad magic");
  if (header.get<std::uint32_t>() != kVersion) {
    header.fail("unsupported version");
  }
  // The payload as long as the file really is, checked against its
  // trailing digest before any count in it is believed.
  std::string bytes(std::istreambuf_iterator<char>(file), {});
  std::uint64_t digest = 0;
  if (bytes.size() < sizeof digest) header.fail("truncated file");
  std::memcpy(&digest, bytes.data() + bytes.size() - sizeof digest,
              sizeof digest);
  bytes.resize(bytes.size() - sizeof digest);
  if (fnv1a(bytes.data(), bytes.size()) != digest) {
    header.fail("payload digest mismatch");
  }
  std::istringstream payload(std::move(bytes));
  BinaryReader in(payload, "kernel cache");
  KernelSet set;
  set.focusNm = in.get<double>();
  const auto samples = in.get<std::uint32_t>();
  if (samples == 0) in.fail("empty lattice");
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto row = in.get<std::int32_t>();
    const auto col = in.get<std::int32_t>();
    set.lattice.push_back({row, col});
  }
  const auto count = in.get<std::uint32_t>();
  if (count < 1 || count > 4096) in.fail("implausible kernel count");
  for (std::uint32_t k = 0; k < count; ++k) {
    set.weights.push_back(in.get<double>());
    set.kernels.push_back(readValues(in, samples));
  }
  set.combined = readValues(in, samples);
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
  return "kernels_f" +
         std::to_string(static_cast<long long>(std::llround(focusNm * 10))) +
         "_o" + opticsParameterHash(optics) + ".bin";
}

}  // namespace mosaic
