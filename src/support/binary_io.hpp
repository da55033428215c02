#pragma once
/// \file binary_io.hpp
/// The one reader/writer of the program's binary files: the optimizer
/// checkpoint (opc/checkpoint.cpp), the kernel cache (litho/kernel_cache)
/// and pattern-store entries (cache/store). Values are fixed-width and
/// host-endian: these files are local artifacts (crash recovery, caches),
/// not an interchange format.

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "support/error.hpp"

namespace mosaic {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  /// Writes the value's bytes; name the width at the call site
  /// (put<std::int32_t>(n)) when the argument's type is not fixed-width.
  template <typename T>
  void put(T value) {
    static_assert(std::is_arithmetic_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof value);
  }

  void putDoubles(const double* data, std::size_t count) {
    if (count == 0) return;
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(count * sizeof(double)));
  }

 private:
  std::ostream& out_;
};

/// Reads what BinaryWriter wrote. Every failure throws FormatError with a
/// message that starts with the format's name ("checkpoint: truncated
/// file").
class BinaryReader {
 public:
  BinaryReader(std::istream& in, std::string format)
      : in_(in), format_(std::move(format)) {}

  template <typename T>
  T get() {
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    in_.read(reinterpret_cast<char*>(&value), sizeof value);
    if (!in_.good()) fail("truncated file");
    return value;
  }

  void getDoubles(double* data, std::size_t count) {
    if (count == 0) return;
    in_.read(reinterpret_cast<char*>(data),
             static_cast<std::streamsize>(count * sizeof(double)));
    if (!in_.good()) fail("truncated file");
  }

  /// A well-formed file ends exactly here: trailing bytes mean it was
  /// concatenated, doubly written, or is not ours after all.
  void expectEnd() {
    in_.peek();
    if (!in_.eof()) fail("trailing bytes");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw FormatError(format_ + ": " + what);
  }

 private:
  std::istream& in_;
  std::string format_;
};

}  // namespace mosaic
