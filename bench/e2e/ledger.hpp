#pragma once
/// \file ledger.hpp
/// Bookkeeping of the end-to-end benchmark (README.md): named metrics with
/// units, order statistics, and the bench-side span recorder that times
/// each call the bench makes into a library layer.

#include <chrono>
#include <string>
#include <vector>

namespace mosaic::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; setting a name twice overwrites it.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile q in [0, 1] of unsorted samples (0 when
/// empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// First and third quartile as Python's statistics.quantiles(values, n=4)
/// computes them (the "exclusive" method), which is how run sets are
/// compared. Needs at least two values; with one, both equal it.
void quartiles(std::vector<double> values, double* q1, double* q3);

/// Spans recorded around the bench's own calls into library layers: name,
/// start, end and parent, kept in memory and written out at exit. Used on
/// the bench's main thread only. A disabled tracer records nothing and
/// costs one branch per scope, so untraced runs measure the same code.
class Tracer {
 public:
  struct Span {
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
  };

  /// RAII span; ends when destroyed.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the span, -1 when tracing is off.
    [[nodiscard]] int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope scope(const char* name) { return Scope(*this, name); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durationsMs(const std::string& name) const;
  /// Share of span `index` not covered by its direct children, in percent.
  [[nodiscard]] double unattributedPct(int index) const;
  /// Chrome trace_event JSON ("ph":"X" events; loads in Perfetto).
  void writeChromeTrace(const std::string& path) const;
  /// Measured cost of recording one span, in milliseconds.
  [[nodiscard]] static double spanCostMs();

 private:
  int begin(const char* name);
  void end(int index);
  [[nodiscard]] double nowMs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace mosaic::e2e
