#include "serve/job.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "opc/mosaic.hpp"
#include "suite/testcases.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace serve {

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCanceled:
      return "canceled";
    case JobState::kExpired:
      return "expired";
  }
  return "unknown";
}

void specToJson(const JobSpec& spec, telemetry::JsonObject* out) {
  MOSAIC_CHECK(out != nullptr, "specToJson needs an output object");
  out->set("case", spec.caseName);
  out->set("method", spec.method);
  out->set("pixel_nm", spec.pixelNm);
  out->set("iterations", spec.iterations);
  out->set("deadline_s", spec.deadlineSeconds);
  out->set("max_attempts", spec.maxAttempts);
  out->set("checkpoint_every", spec.checkpointEvery);
}

namespace {

/// obj[key] as an int, `fallback` when absent. A number that is not an
/// integer in int range is rejected, naming the field, rather than read
/// as the fallback or truncated.
int intField(const telemetry::JsonValue& obj, std::string_view key,
             int fallback) {
  const telemetry::JsonValue* v = obj.find(key);
  MOSAIC_CHECK(v == nullptr || !v->isNumber() || v->isInt(),
               "job " << key << " must be an integer, got "
                      << v->asNumber());
  return obj.intOr(key, fallback);
}

}  // namespace

JobSpec specFromJson(const telemetry::JsonValue& obj) {
  JobSpec spec;
  spec.caseName = obj.stringOr("case", spec.caseName);
  spec.method = obj.stringOr("method", spec.method);
  spec.pixelNm = intField(obj, "pixel_nm", spec.pixelNm);
  spec.iterations = intField(obj, "iterations", spec.iterations);
  spec.deadlineSeconds = obj.numberOr("deadline_s", spec.deadlineSeconds);
  spec.maxAttempts = intField(obj, "max_attempts", spec.maxAttempts);
  spec.checkpointEvery =
      intField(obj, "checkpoint_every", spec.checkpointEvery);
  validateSpec(spec);
  return spec;
}

void validateSpec(const JobSpec& spec) {
  // Validate eagerly so a bad submit is rejected at admission, not after a
  // worker has already picked the job up.
  MOSAIC_CHECK(!spec.caseName.empty(), "job case must not be empty");
  bool builtin = false;
  if (spec.caseName.size() >= 2 && spec.caseName[0] == 'B') {
    const std::string num = spec.caseName.substr(1);
    if (num.find_first_not_of("0123456789") == std::string::npos) {
      const int index = std::atoi(num.c_str());
      builtin = index >= 1 && index <= kTestcaseCount;
    }
  }
  const bool random = spec.caseName.rfind("random:", 0) == 0;
  MOSAIC_CHECK(builtin || random,
               "job case must be B1..B10 or random:<seed>, got "
                   << spec.caseName);
  if (random) {
    const std::string seed = spec.caseName.substr(7);
    MOSAIC_CHECK(!seed.empty() &&
                     seed.find_first_not_of("0123456789") == std::string::npos,
                 "bad random clip seed: " << spec.caseName);
  }
  (void)parseOpcMethod(spec.method);
  MOSAIC_CHECK(spec.pixelNm >= 1 && spec.pixelNm <= 64,
               "job pixel_nm out of range [1, 64]: " << spec.pixelNm);
  MOSAIC_CHECK(spec.iterations >= 0 && spec.iterations <= 100000,
               "job iterations out of range: " << spec.iterations);
  MOSAIC_CHECK(spec.deadlineSeconds >= 0.0,
               "job deadline_s must be >= 0: " << spec.deadlineSeconds);
  MOSAIC_CHECK(spec.maxAttempts >= 1 && spec.maxAttempts <= 10,
               "job max_attempts out of range [1, 10]: " << spec.maxAttempts);
  MOSAIC_CHECK(spec.checkpointEvery >= 1,
               "job checkpoint_every must be >= 1: " << spec.checkpointEvery);
}

std::string maskHashHex(const RealGrid& mask) {
  // FNV-1a 64 over the raw double bytes: cheap, deterministic, and any
  // single-bit difference between two masks flips the digest. The seed is
  // not the standard basis; it is kept verbatim because these digests are
  // persisted in job journals and compared across daemon restarts.
  constexpr std::uint64_t kLegacyMaskHashSeed = 1469598103934665603ull;
  return Fnv1a::hashHex(
      fnv1a(mask.data(), mask.size() * sizeof(double), kLegacyMaskHashSeed));
}

}  // namespace serve
}  // namespace mosaic
