#include "support/atomic_file.hpp"

#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "support/error.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {
namespace {

/// Swap `tmp` into `path` when `path` already names a regular file, and
/// report whether that happened; on `false` nothing was changed.
///
/// Why not rename over it: ext4's default `auto_da_alloc` starts
/// writeback of a file's data when it is renamed over an existing file,
/// which costs tens of milliseconds per replace on a VM disk (a rename to
/// a fresh name, or an exchange, costs microseconds). That flush buys
/// nothing here: every publisher's durability contract is process death,
/// not power loss (docs/serving.md, "Recovery semantics"). After a power
/// loss a replaced file may read empty, and every loader already treats
/// that as a corrupt file whose work is redone (docs/robustness.md,
/// "Publication").
bool exchangeIntoPlace(const std::string& tmp, const std::string& path) {
#ifdef RENAME_EXCHANGE
  struct stat st {};
  if (::lstat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
  // Any failure (EINVAL/ENOSYS from a filesystem or kernel without the
  // exchange, or `path` removed since the lstat) leaves both names as
  // they were, and the caller's rename decides.
  if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) != 0) {
    return false;
  }
  // `path` is published; `tmp` now holds the predecessor. A reader that
  // opened it keeps its bytes until it closes the stream.
  if (::unlink(tmp.c_str()) != 0) {
    const std::error_code err(errno, std::system_category());
    LOG_WARN("published " << path << " but could not remove its predecessor "
                          << tmp << ": " << err.message());
  }
  return true;
#else
  (void)tmp;
  (void)path;
  return false;
#endif
}

}  // namespace

void writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write) {
  MOSAIC_SPAN("io.publish");
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
    if (exchangeIntoPlace(tmp, path)) return;
    std::filesystem::rename(tmp, path, ec);
    MOSAIC_CHECK(!ec, "cannot rename " << tmp << ": " << ec.message());
  } catch (...) {
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

}  // namespace mosaic
