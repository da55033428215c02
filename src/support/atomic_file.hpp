#pragma once
/// \file atomic_file.hpp
/// The one temp-file-and-swap publication step of every writer whose
/// file may be read while it is replaced: optimizer checkpoints,
/// kernel-cache files, pattern-store entries, the fingerprint manifest.

#include <functional>
#include <ostream>
#include <string>

namespace mosaic {

/// Publish `path` atomically: `write` fills `<path>.tmp<pid>_<n>` (`n` a
/// process-wide counter, so concurrent writers of one path never share a
/// temp file). When `path` is already a regular file the two are
/// exchanged (`renameat2(RENAME_EXCHANGE)`) and the predecessor, now at
/// the temp name, is unlinked; otherwise, or where the platform or
/// filesystem has no exchange, the temp file is renamed to `path`.
/// Readers see the old file or the whole new one, and `path` names a
/// complete file at every instant. On any failure the temp file is
/// removed, `path` is left as it was, and the error propagates; a failed
/// unlink of the predecessor after the exchange is logged, not thrown.
/// The publish is durable against process death, not power loss.
void writeFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

}  // namespace mosaic
