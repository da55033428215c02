#include "cache/manifest.hpp"

#include <cstdlib>
#include <fstream>

#include "support/atomic_file.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/telemetry/json.hpp"
#include "support/telemetry/jsonin.hpp"

namespace mosaic {
namespace {

bool parseHex64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 16);
  return end == s.c_str() + s.size();
}

}  // namespace

std::string manifestPath(const std::string& storeDir) {
  return storeDir + "/fingerprints.jsonl";
}

void writeFingerprintManifest(const std::string& path,
                              const std::vector<ManifestEntry>& entries) {
  writeFileAtomically(path, [&](std::ostream& out) {
    for (const ManifestEntry& e : entries) {
      telemetry::JsonObject obj;
      obj.set("core_x", e.coreXNm);
      obj.set("core_y", e.coreYNm);
      obj.set("core", Fnv1a::hashHex(e.fp.coreHash));
      obj.set("window", Fnv1a::hashHex(e.fp.windowHash));
      obj.set("config", Fnv1a::hashHex(e.fp.configHash));
      obj.set("anchor_row", e.fp.anchorPxRow);
      obj.set("anchor_col", e.fp.anchorPxCol);
      obj.set("empty", e.fp.empty);
      out << obj.str() << "\n";
    }
  });
}

bool readFingerprintManifest(const std::string& path,
                             std::vector<ManifestEntry>* out) {
  out->clear();
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    telemetry::JsonValue v;
    try {
      v = telemetry::JsonValue::parse(line);
    } catch (const std::exception& e) {
      LOG_WARN("fingerprint manifest " << path << ":" << lineNo
                                       << " unparseable: " << e.what());
      out->clear();
      return false;
    }
    ManifestEntry e;
    e.coreXNm = v.intOr("core_x", 0);
    e.coreYNm = v.intOr("core_y", 0);
    e.fp.anchorPxRow = v.intOr("anchor_row", 0);
    e.fp.anchorPxCol = v.intOr("anchor_col", 0);
    e.fp.empty = v.boolOr("empty", false);
    if (!parseHex64(v.stringOr("core", ""), &e.fp.coreHash) ||
        !parseHex64(v.stringOr("window", ""), &e.fp.windowHash) ||
        !parseHex64(v.stringOr("config", ""), &e.fp.configHash)) {
      LOG_WARN("fingerprint manifest " << path << ":" << lineNo
                                       << " has malformed hashes");
      out->clear();
      return false;
    }
    out->push_back(e);
  }
  return true;
}

}  // namespace mosaic
