/// \file ledger.cpp
#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "support/error.hpp"
#include "support/telemetry/json.hpp"

namespace mosaic::e2e {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void quartiles(std::vector<double> values, double* q1, double* q3) {
  MOSAIC_CHECK(!values.empty(), "quartiles of an empty sample");
  std::sort(values.begin(), values.end());
  const long long n = static_cast<long long>(values.size());
  if (n == 1) {
    *q1 = *q3 = values[0];
    return;
  }
  double out[2];
  for (int k = 0; k < 2; ++k) {
    const long long i = k == 0 ? 1 : 3;
    const long long m = n + 1;
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    out[k] = (values[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
              values[static_cast<std::size_t>(j)] * delta) /
             4.0;
  }
  *q1 = out[0];
  *q3 = out[1];
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (tracer_.enabled_) index_ = tracer_.begin(name);
}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_.end(index_);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(4096);
}

double Tracer::nowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const char* name) {
  spans_.push_back({name, nowMs(), 0.0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::end(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.endMs = nowMs();
  open_ = span.parent;
}

std::vector<double> Tracer::durationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.endMs - s.startMs);
  }
  return out;
}

double Tracer::unattributedPct(int index) const {
  if (index < 0) return 0.0;
  const Span& root = spans_[static_cast<std::size_t>(index)];
  const double wall = root.endMs - root.startMs;
  if (wall <= 0.0) return 0.0;
  // Direct children of one parent never overlap: the recorder is
  // single-threaded and scopes nest.
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == index) covered += s.endMs - s.startMs;
  }
  return 100.0 * std::max(0.0, wall - covered) / wall;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  MOSAIC_CHECK(out.good(), "cannot open for writing: " << path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    telemetry::JsonObject ev;
    ev.set("name", s.name);
    ev.set("ph", "X");
    ev.set("pid", 1);
    ev.set("tid", 1);
    ev.set("ts", s.startMs * 1e3);
    ev.set("dur", (s.endMs - s.startMs) * 1e3);
    telemetry::JsonObject args;
    args.set("id", static_cast<int>(i));
    args.set("parent", s.parent);
    ev.setRaw("args", args.str());
    out << (i == 0 ? "" : ",") << "\n" << ev.str();
  }
  out << "\n]}\n";
  MOSAIC_CHECK(out.good(), "write failed: " << path);
}

double Tracer::spanCostMs() {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Scope s(probe, "trace.cost");
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count() /
         kSpans;
}

}  // namespace mosaic::e2e
