/// \file bm_telemetry.cpp
/// Telemetry overhead measurement (docs/observability.md): times a fixed
/// FFT workload four ways -- uninstrumented, spans with tracing disabled
/// (histograms only; the always-on production state), spans with tracing
/// enabled, and spans plus a per-op progress publish to a watcher-less
/// ProgressBus (the serve streaming path when nobody is watching) -- plus
/// the raw cost of an empty span and the Prometheus /metrics encode cost.
/// The four variants run interleaved, one block of each per repetition in
/// a rotating order, and each overhead is the median over repetitions of
/// (variant time / base time of the same repetition), so host drift
/// between blocks does not read as overhead. Reports the relative
/// overheads, emits BENCH_telemetry.json, and with --max-overhead-pct N
/// exits nonzero when either the disabled-mode or the idle-sink overhead
/// exceeds N percent (the guarantee the docs advertise; enforced by the
/// telemetry_overhead ctest at 3 %).
///
/// The workload uses the 1-D FftPlan directly: unlike Fft2d::forward it
/// carries no MOSAIC_SPAN itself, so the uninstrumented variant is a true
/// zero-telemetry baseline within one binary.

#include <algorithm>
#include <array>
#include <complex>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "math/fft.hpp"
#include "serve/progress.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/prometheus.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace mosaic;
  int fftSize = 4096;
  int iters = 150;
  int reps = 24;
  double maxOverheadPct = -1.0;
  std::string jsonPath = "BENCH_telemetry.json";

  CliParser cli("bm_telemetry",
                "overhead of MOSAIC_SPAN instrumentation on an FFT workload");
  cli.addInt("fft-size", &fftSize, "1-D FFT length per instrumented call");
  cli.addInt("iters", &iters, "FFT round-trips per timed block");
  cli.addInt("reps", &reps,
             "repetitions, each timing every variant once (median is "
             "reported)");
  cli.addDouble("max-overhead-pct", &maxOverheadPct,
                "fail when disabled-mode overhead exceeds this (<0 = off)");
  cli.addString("json", &jsonPath, "output JSON path");
  try {
    if (!cli.parse(argc, argv)) return 0;
    MOSAIC_CHECK(iters > 0 && reps > 0, "iters and reps must be positive");

    const FftPlan plan(static_cast<std::size_t>(fftSize));
    std::vector<std::complex<double>> data(
        static_cast<std::size_t>(fftSize));
    for (int i = 0; i < fftSize; ++i) {
      data[static_cast<std::size_t>(i)] = {1.0 + (i % 7), 0.5 * (i % 3)};
    }
    // forward + inverse leaves the data unchanged up to rounding, so every
    // iteration transforms the same magnitudes (no drift to inf).
    auto op = [&] {
      plan.forward(data.data());
      plan.inverse(data.data());
    };

    // Streaming progress with no watcher attached: every op also builds
    // and publishes one event to a subscriber-less ProgressBus topic, the
    // state a serving daemon is in whenever a job runs unwatched. This is
    // the per-iteration cost OptimizeOptions::progressSink adds.
    serve::ProgressBus bus;
    int sinkIteration = 0;
    auto publishProgress = [&] {
      serve::ProgressEvent event;
      event.job = "bm-job";
      event.seq = bus.nextSeq(event.job);
      event.iteration = ++sinkIteration;
      event.objective = 1.0;
      event.fTarget = 0.5;
      event.fPvb = 0.5;
      event.gradRms = 0.1;
      event.wallMs = 1.0;
      bus.publish(event);
    };

    // One timed block of `iters` ops. Each op is tens of microseconds, so
    // the span cost is amortized over real work, matching how the
    // production spans wrap multi-microsecond calls; blocks are short, so
    // the blocks of one repetition see nearly the same host.
    enum Variant { kBase, kDisabled, kEnabled, kSink, kVariants };
    auto timeBlock = [&](int variant) {
      telemetry::setTraceEnabled(variant == kEnabled);
      WallTimer timer;
      for (int i = 0; i < iters; ++i) {
        if (variant == kBase) {
          op();
        } else {
          MOSAIC_SPAN("bm.fft_roundtrip");
          op();
          if (variant == kSink) publishProgress();
        }
      }
      const double s = timer.seconds();
      telemetry::setTraceEnabled(false);
      telemetry::clearTrace();
      return s;
    };

    // Repetition r times the variants in the order r, r + 1, ... (mod 4);
    // every overhead pairs a variant with its own repetition's base.
    op();  // touch everything once before timing
    std::vector<std::array<double, kVariants>> seconds(
        static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      for (int k = 0; k < kVariants; ++k) {
        const int variant = (r + k) % kVariants;
        seconds[static_cast<std::size_t>(r)][variant] = timeBlock(variant);
      }
    }
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const std::size_t n = v.size();
      return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };
    auto medianSeconds = [&](int variant) {
      std::vector<double> v;
      for (const auto& rep : seconds) v.push_back(rep[variant]);
      return median(v);
    };
    auto overheadPct = [&](int variant) {
      std::vector<double> ratios;
      for (const auto& rep : seconds) {
        ratios.push_back(rep[variant] / rep[kBase]);
      }
      return std::max(0.0, (median(ratios) - 1.0) * 100.0);
    };
    const double tBase = medianSeconds(kBase);
    const double tDisabled = medianSeconds(kDisabled);
    const double tEnabled = medianSeconds(kEnabled);
    const double tSink = medianSeconds(kSink);
    const double disabledPct = overheadPct(kDisabled);
    const double enabledPct = overheadPct(kEnabled);
    const double sinkPct = overheadPct(kSink);

    // Raw per-span cost, histogram-only mode (the hot production path).
    constexpr int kEmptySpans = 1000000;
    WallTimer emptyTimer;
    for (int i = 0; i < kEmptySpans; ++i) {
      MOSAIC_SPAN("bm.empty");
    }
    const double nsPerSpan = emptyTimer.seconds() * 1e9 / kEmptySpans;

    // Prometheus /metrics encode cost: render a snapshot shaped like a
    // busy daemon's registry (every scrape pays this on the endpoint
    // thread, never on a worker).
    {
      auto& reg = telemetry::metrics();
      for (int i = 0; i < 16; ++i) {
        reg.counter("bm.counter_" + std::to_string(i)).add(1000 + i);
        reg.gauge("bm.gauge_" + std::to_string(i)).set(i * 1.5);
      }
      for (int i = 0; i < 8; ++i) {
        auto& h = reg.histogram("bm.hist_" + std::to_string(i));
        for (int j = 0; j < 4096; ++j) h.record((j * 37) % 100000);
      }
    }
    const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
    constexpr int kEncodes = 2000;
    std::size_t promBytes = 0;
    WallTimer encodeTimer;
    for (int i = 0; i < kEncodes; ++i) {
      promBytes = telemetry::toPrometheusText(snap).size();
    }
    const double usPerEncode = encodeTimer.seconds() * 1e6 / kEncodes;

    const double usPerOp = tBase * 1e6 / iters;

    std::printf("== bm_telemetry: %d-pt FFT round-trip (%.1f us/op), "
                "%d iters x %d reps ==\n",
                fftSize, usPerOp, iters, reps);
    TextTable table;
    table.setHeader({"variant", "time (s)", "overhead"});
    table.addRow({"uninstrumented", TextTable::num(tBase, 4), "-"});
    table.addRow({"spans, tracing off", TextTable::num(tDisabled, 4),
                  TextTable::num(disabledPct, 2) + " %"});
    table.addRow({"spans, tracing on", TextTable::num(tEnabled, 4),
                  TextTable::num(enabledPct, 2) + " %"});
    table.addRow({"spans + idle progress sink", TextTable::num(tSink, 4),
                  TextTable::num(sinkPct, 2) + " %"});
    std::printf("%s", table.render().c_str());
    std::printf("empty span: %.0f ns (histogram record, tracing off)\n",
                nsPerSpan);
    std::printf("prometheus encode: %.1f us for %zu bytes "
                "(%zu counters, %zu gauges, %zu histograms)\n",
                usPerEncode, promBytes, snap.counters.size(),
                snap.gauges.size(), snap.histograms.size());

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_telemetry\",\n"
                 "  \"fft_size\": %d,\n  \"iters\": %d,\n  \"reps\": %d,\n"
                 "  \"us_per_op\": %.3f,\n"
                 "  \"baseline_s\": %.6f,\n"
                 "  \"disabled_s\": %.6f,\n"
                 "  \"enabled_s\": %.6f,\n"
                 "  \"idle_sink_s\": %.6f,\n"
                 "  \"disabled_overhead_pct\": %.4f,\n"
                 "  \"enabled_overhead_pct\": %.4f,\n"
                 "  \"idle_sink_overhead_pct\": %.4f,\n"
                 "  \"empty_span_ns\": %.1f,\n"
                 "  \"prometheus_encode_us\": %.2f,\n"
                 "  \"prometheus_bytes\": %zu\n}\n",
                 fftSize, iters, reps, usPerOp, tBase, tDisabled, tEnabled,
                 tSink, disabledPct, enabledPct, sinkPct, nsPerSpan,
                 usPerEncode, promBytes);
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (maxOverheadPct >= 0.0 && disabledPct > maxOverheadPct) {
      std::fprintf(stderr,
                   "bm_telemetry: disabled-mode overhead %.2f %% exceeds "
                   "the %.2f %% budget\n",
                   disabledPct, maxOverheadPct);
      return 1;
    }
    if (maxOverheadPct >= 0.0 && sinkPct > maxOverheadPct) {
      std::fprintf(stderr,
                   "bm_telemetry: idle-progress-sink overhead %.2f %% "
                   "exceeds the %.2f %% budget\n",
                   sinkPct, maxOverheadPct);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_telemetry: %s\n", e.what());
    return 1;
  }
  return 0;
}
