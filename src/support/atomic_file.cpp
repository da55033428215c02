#include "support/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "support/error.hpp"

namespace mosaic {

void writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    MOSAIC_CHECK(out.good(), "cannot open for writing: " << tmp);
    write(out);
    out.close();
    MOSAIC_CHECK(out.good(), "write failed: " << tmp);
    std::filesystem::rename(tmp, path, ec);
    MOSAIC_CHECK(!ec, "cannot rename " << tmp << ": " << ec.message());
  } catch (...) {
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

}  // namespace mosaic
