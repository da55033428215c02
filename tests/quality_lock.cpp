/// \file quality_lock.cpp
/// Behaviour lock for the production optimization path: B1..B10 under
/// MOSAIC fast at an 8 nm pixel, all clips sharing one simulator. Per
/// clip it records the binary-mask hash, #EPE, PV-band area, iteration
/// count and stop reason, and diffs them against the committed
/// BENCH_quality.json. Any drift fails with the clip and the metric
/// named; an intentional change regenerates the file (--write) in the
/// same change and says why.
///
///   quality_lock --baseline BENCH_quality.json   # check (the tier-1 ctest)
///   quality_lock --write BENCH_quality.json      # regenerate

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/evaluator.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/mosaic.hpp"
#include "suite/testcases.hpp"
#include "support/hash.hpp"
#include "support/telemetry/jsonin.hpp"

namespace {

using namespace mosaic;

constexpr int kPixelNm = 8;

struct ClipQuality {
  std::string clip;
  std::string maskHash;
  int epeViolations = 0;
  double pvbandNm2 = 0.0;
  int iterations = 0;
  std::string stopReason;
};

std::vector<ClipQuality> runSuite() {
  OpticsConfig optics;
  optics.pixelNm = kPixelNm;
  const LithoSimulator sim(optics);
  std::vector<ClipQuality> out;
  for (int index = 1; index <= kTestcaseCount; ++index) {
    const Layout layout = buildTestcase(index);
    const BitGrid target = rasterize(layout, kPixelNm);
    const OpcResult res = runOpc(sim, target, OpcMethod::kMosaicFast);
    const CaseEvaluation ev =
        evaluateMask(sim, res.maskTwoLevel, target, res.runtimeSec);
    ClipQuality q;
    q.clip = "B";
    q.clip += std::to_string(index);
    q.maskHash = Fnv1a()
                     .mix(res.maskBinary.rows())
                     .mix(res.maskBinary.cols())
                     .mixBytes(res.maskBinary.data(), res.maskBinary.size())
                     .hex();
    q.epeViolations = ev.epeViolations;
    q.pvbandNm2 = ev.pvbandAreaNm2;
    q.iterations = res.iterations;
    q.stopReason = stopReasonName(res.stopReason);
    out.push_back(q);
  }
  return out;
}

std::string toJson(const std::vector<ClipQuality>& clips) {
  std::ostringstream os;
  os << "{\n  \"lock\": \"B1-B10, method fast, pixel " << kPixelNm
     << " nm, one shared simulator\",\n  \"clips\": [\n";
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const ClipQuality& q = clips[i];
    char pvb[64];
    std::snprintf(pvb, sizeof pvb, "%.17g", q.pvbandNm2);
    os << "    {\"clip\": \"" << q.clip << "\", \"mask_hash\": \""
       << q.maskHash << "\", \"epe_violations\": " << q.epeViolations
       << ", \"pvband_nm2\": " << pvb << ", \"iterations\": " << q.iterations
       << ", \"stop_reason\": \"" << q.stopReason << "\"}"
       << (i + 1 < clips.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Number of drifted metrics; each one is printed with its clip.
int diffAgainst(const std::vector<ClipQuality>& got,
                const telemetry::JsonValue& baseline) {
  const telemetry::JsonValue* clips = baseline.find("clips");
  if (clips == nullptr || !clips->isArray()) {
    std::fprintf(stderr, "quality_lock: baseline has no \"clips\" array\n");
    return 1;
  }
  int drift = 0;
  auto report = [&](const std::string& clip, const char* metric,
                    const std::string& want, const std::string& have) {
    if (want == have) return;
    std::fprintf(stderr, "quality_lock: %s %s drifted: baseline %s, now %s\n",
                 clip.c_str(), metric, want.c_str(), have.c_str());
    ++drift;
  };
  const std::vector<telemetry::JsonValue>& rows = clips->asArray();
  if (rows.size() != got.size()) {
    std::fprintf(stderr, "quality_lock: baseline has %zu clips, run has %zu\n",
                 rows.size(), got.size());
    ++drift;
  }
  for (std::size_t i = 0; i < got.size() && i < rows.size(); ++i) {
    const ClipQuality& q = got[i];
    const telemetry::JsonValue& row = rows[i];
    report(q.clip, "clip", row.stringOr("clip", ""), q.clip);
    report(q.clip, "mask_hash", row.stringOr("mask_hash", ""), q.maskHash);
    report(q.clip, "epe_violations",
           std::to_string(row.intOr("epe_violations", -1)),
           std::to_string(q.epeViolations));
    char want[64];
    char have[64];
    std::snprintf(want, sizeof want, "%.17g", row.numberOr("pvband_nm2", -1));
    std::snprintf(have, sizeof have, "%.17g", q.pvbandNm2);
    report(q.clip, "pvband_nm2", want, have);
    report(q.clip, "iterations", std::to_string(row.intOr("iterations", -1)),
           std::to_string(q.iterations));
    report(q.clip, "stop_reason", row.stringOr("stop_reason", ""),
           q.stopReason);
  }
  return drift;
}

int usage() {
  std::fprintf(stderr,
               "usage: quality_lock --baseline <BENCH_quality.json>\n"
               "       quality_lock --write <BENCH_quality.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return usage();
  const bool write = std::strcmp(argv[1], "--write") == 0;
  if (!write && std::strcmp(argv[1], "--baseline") != 0) return usage();
  const std::string path = argv[2];
  try {
    const std::vector<ClipQuality> clips = runSuite();
    const std::string json = toJson(clips);
    std::fputs(json.c_str(), stdout);
    if (write) {
      std::ofstream out(path, std::ios::trunc);
      out << json;
      if (!out.good()) {
        std::fprintf(stderr, "quality_lock: cannot write %s\n", path.c_str());
        return 1;
      }
      return 0;
    }
    std::ifstream in(path);
    if (!in.good()) {
      std::fprintf(stderr, "quality_lock: cannot read %s\n", path.c_str());
      return 1;
    }
    std::stringstream text;
    text << in.rdbuf();
    const int drift =
        diffAgainst(clips, mosaic::telemetry::JsonValue::parse(text.str()));
    if (drift > 0) {
      std::fprintf(stderr, "quality_lock: %d metric(s) drifted from %s\n",
                   drift, path.c_str());
      return 1;
    }
    std::printf("quality_lock: %zu clips match %s\n", clips.size(),
                path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quality_lock failed: %s\n", e.what());
    return 1;
  }
}
