#pragma once
/// \file atomic_file.hpp
/// The one temp-file-and-rename publication step of every writer whose
/// file may be read while it is replaced: optimizer checkpoints,
/// kernel-cache files, pattern-store entries, the fingerprint manifest.

#include <functional>
#include <ostream>
#include <string>

namespace mosaic {

/// Publish `path` atomically: `write` fills `<path>.tmp<pid>_<n>` (`n` a
/// process-wide counter, so concurrent writers of one path never share a
/// temp file), which is then renamed over `path`. Readers see the old
/// file or the whole new one. On any failure the temp file is removed,
/// `path` is left as it was, and the error propagates.
void writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

}  // namespace mosaic
