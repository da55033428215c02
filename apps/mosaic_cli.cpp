/// \file mosaic_cli.cpp
/// The `mosaic_cli` command-line tool: run OPC on GLP layouts or built-in
/// benchmark clips, simulate masks through the lithography model, evaluate
/// contest metrics, check mask rules, and export the benchmark suite.
///
/// Subcommands:
///   run           OPC a target layout and write the optimized mask
///   batch         fault-tolerant OPC over the whole benchmark suite
///   chip          full-chip OPC: tile, optimize in parallel, stitch
///   simulate      forward-simulate a mask at a process corner
///   evaluate      contest metrics + MRC for a mask against a target
///   export-suite  write the built-in clips B1..B10 as GLP files
///
/// Examples:
///   mosaic_cli run --case 4 --method exact --out-mask /tmp/b4_mask.glp
///   mosaic_cli run --input clip.glp --method fast --images /tmp
///   mosaic_cli run --case 2 --checkpoint /tmp/b2.ckpt --checkpoint-every 5
///   mosaic_cli run --case 2 --resume /tmp/b2.ckpt
///   mosaic_cli batch --method fast --retries 1
///   mosaic_cli chip --input die.glp --chip-size 4096 --threads 8
///   mosaic_cli chip --case 1 --replicate 2 --pixel 8 --tile-size 1024
///   mosaic_cli simulate --input /tmp/b4_mask.glp --focus 25 --dose 0.98
///   mosaic_cli evaluate --input /tmp/b4_mask.glp --target-case 4
///   mosaic_cli export-suite --dir /tmp/suite
///   mosaic_cli submit --port-file /tmp/serve/serve.port --case B3 --wait
///
/// Fault injection for robustness testing is armed via the
/// MOSAIC_FAILPOINTS environment variable or the --failpoints option of
/// `run`, `batch` and `chip` (see docs/robustness.md).
///
/// The long-running subcommands (run, batch, chip) handle SIGINT/SIGTERM
/// gracefully: in-flight work is checkpointed (when checkpointing is
/// armed), a resume hint is printed, and the process exits with code 3 so
/// scripts can tell an interrupt from success (0) and failures (1/2). See
/// docs/serving.md for the daemon-side story.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.hpp"
#include "eval/mrc.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/contour.hpp"
#include "geometry/raster.hpp"
#include "io/glp.hpp"
#include "litho/simulator.hpp"
#include "opc/baselines.hpp"
#include "opc/edge_opc.hpp"
#include "opc/levelset.hpp"
#include "opc/mosaic.hpp"
#include "serve/job.hpp"
#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/failpoint.hpp"
#include "support/image_io.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/signal.hpp"
#include "support/socket.hpp"
#include "support/table.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/runlog.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"
#include "tile/scheduler.hpp"

namespace {

using namespace mosaic;

/// --method, --pixel, --iters and --deadline: which optimizer, on which
/// raster, for how long.
struct SolveFlags {
  std::string method = "fast";
  int pixel = 4;
  int iters = 0;
  double deadline = 0.0;

  void addOptions(CliParser& cli,
                  const char* methods = "fast | exact | baseline") {
    cli.addString("method", &method, methods);
    cli.addInt("pixel", &pixel, "pixel size in nm");
    cli.addInt("iters", &iters, "optimizer iterations (0 = method default)");
    cli.addDouble("deadline", &deadline,
                  "wall-clock budget per clip, tile or job in seconds "
                  "(0 = unlimited)");
  }

  [[nodiscard]] IltConfig iltConfig() const {
    IltConfig cfg = defaultIltConfig(parseOpcMethod(method), pixel);
    if (iters > 0) cfg.maxIterations = iters;
    cfg.deadlineSeconds = deadline;
    return cfg;
  }
};

/// --retries, --backoff-ms, --checkpoint-dir, --checkpoint-every and
/// --resume: the attempt policy of batch clips and chip tiles
/// (docs/robustness.md, "Fault contract").
struct AttemptFlags {
  int retries = 1;
  int backoffMs = 50;
  std::string checkpointDir;
  int checkpointEvery = 5;
  bool resume = false;

  /// `unit` names what is attempted: "clip" or "tile".
  void addOptions(CliParser& cli, const std::string& unit) {
    cli.addInt("retries", &retries, "retries per " + unit + " on failure");
    cli.addInt("backoff-ms", &backoffMs, "retry backoff in milliseconds");
    cli.addString("checkpoint-dir", &checkpointDir,
                  "directory for per-" + unit + " optimizer checkpoints");
    cli.addInt("checkpoint-every", &checkpointEvery,
               "iterations between per-" + unit + " checkpoints");
    cli.addFlag("resume", &resume,
                "resume " + unit + "s from existing checkpoints in "
                "--checkpoint-dir");
  }

  [[nodiscard]] AttemptPolicy policy() const {
    MOSAIC_CHECK(retries >= 0, "--retries must be >= 0");
    MOSAIC_CHECK(backoffMs >= 0, "--backoff-ms must be >= 0");
    AttemptPolicy p;
    p.maxAttempts = retries + 1;
    p.backoffMs = backoffMs;
    p.checkpointEvery = checkpointEvery;
    p.resume = resume;
    return p;
  }

  /// The `resume with:` arguments, empty when nothing was checkpointed.
  [[nodiscard]] std::string resumeArgs() const {
    return checkpointDir.empty()
               ? std::string()
               : "--checkpoint-dir " + checkpointDir + " --resume";
  }
};

/// The end of an interrupted run, batch or chip: which signal stopped it,
/// how to resume (`resumeArgs`, empty when nothing was checkpointed), and
/// exit code 3.
int interruptedExit(const char* command, const std::string& detail,
                    const std::string& resumeArgs) {
  std::printf("%s interrupted by %s%s\n", command, terminationSignalName(),
              detail.c_str());
  if (resumeArgs.empty()) {
    std::printf("(nothing was checkpointed; in-flight progress is lost)\n");
  } else {
    std::printf("resume with: mosaic_cli %s ... %s\n", command,
                resumeArgs.c_str());
  }
  return kExitInterrupted;
}

/// Shared telemetry wiring of the long-running subcommands
/// (docs/observability.md): --metrics-out, --trace-out, --run-log and
/// --log-format. begin() arms the sinks after CLI parsing; finish() flushes
/// the trace and the metrics snapshot (stamped with the process resource
/// usage) and prints the end-of-run summary table.
struct TelemetryFlags {
  std::string metricsOut;
  std::string traceOut;
  std::string runLogPath;
  std::string logFormat = "text";

  void addOptions(CliParser& cli) {
    cli.addString("metrics-out", &metricsOut,
                  "write the metrics snapshot (JSON) here at exit");
    cli.addString("trace-out", &traceOut,
                  "write a Chrome trace_event JSON (Perfetto-loadable) here");
    cli.addString("run-log", &runLogPath,
                  "append one JSONL telemetry record per iteration/tile here");
    cli.addString("log-format", &logFormat, "log sink format: text | json");
  }

  [[nodiscard]] std::unique_ptr<telemetry::RunLog> begin() const {
    setLogFormat(parseLogFormat(logFormat));
    if (!traceOut.empty()) telemetry::setTraceEnabled(true);
    if (runLogPath.empty()) return nullptr;
    return std::make_unique<telemetry::RunLog>(runLogPath);
  }

  void finish(const telemetry::RunLog* runLog) const {
    if (!traceOut.empty()) {
      telemetry::writeChromeTrace(traceOut);
      std::printf("wrote trace (%llu spans) to %s\n",
                  static_cast<unsigned long long>(telemetry::traceEventCount()),
                  traceOut.c_str());
    }
    if (runLog) {
      std::printf("wrote %lld run-log records to %s\n",
                  runLog->recordsWritten(), runLog->path().c_str());
    }
    if (!metricsOut.empty()) {
      const ResourceProbe probe = ResourceProbe::sample();
      telemetry::metrics().gauge("process.peak_rss_mb").set(probe.peakRssMb);
      telemetry::metrics().gauge("process.user_cpu_s").set(probe.userCpuSec);
      telemetry::metrics().gauge("process.sys_cpu_s").set(probe.sysCpuSec);
      const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
      std::ofstream out(metricsOut, std::ios::trunc);
      MOSAIC_CHECK(out.good(), "cannot open for writing: " << metricsOut);
      out << snap.toJson() << "\n";
      MOSAIC_CHECK(out.good(), "write failed: " << metricsOut);
      std::printf("== metrics (written to %s) ==\n%s", metricsOut.c_str(),
                  snap.summaryTable().c_str());
    }
  }
};

Layout loadTarget(const std::string& inputGlp, int caseIndex) {
  if (!inputGlp.empty()) return readGlpFile(inputGlp);
  MOSAIC_CHECK(caseIndex >= 1 && caseIndex <= kTestcaseCount,
               "pass --input <file.glp> or --case 1..10");
  return buildTestcase(caseIndex);
}

LithoSimulator makeSim(int pixel) {
  OpticsConfig optics;
  optics.pixelNm = pixel;
  return LithoSimulator(optics);
}

/// Build the kernel sets of the optimizer and evaluation corners (focus 0
/// and 25 nm by default) side by side, right after the simulator is made,
/// instead of one after the other at first use. Returns the seconds spent.
double warmCornerKernels(const LithoSimulator& sim) {
  std::vector<double> focuses;
  for (const auto& corners : {IltConfig{}.pvbCorners, EvalConfig{}.corners}) {
    for (const ProcessCorner& corner : corners) {
      focuses.push_back(corner.focusNm);
    }
  }
  WallTimer timer;
  sim.warmKernels(focuses);
  return timer.seconds();
}

/// Write the target, the mask and the evaluation's own nominal print and
/// PV band as PGM images (nothing is imaged again).
void dumpImages(const RealGrid& mask, const BitGrid& target,
                const MaskPrints& prints, const std::string& dir,
                const std::string& stem) {
  auto dump = [&](const std::string& tag, const RealGrid& img) {
    const std::string path = dir + "/" + stem + "_" + tag + ".pgm";
    writePgm(path, {img.data(), img.size()}, img.rows(), img.cols());
    std::printf("wrote %s\n", path.c_str());
  };
  dump("target", toReal(target));
  dump("mask", mask);
  dump("nominal", toReal(prints.nominal));
  dump("pvband", toReal(prints.pvBand.band));
}

void printEvaluation(const CaseEvaluation& ev, const MrcResult& mrc) {
  TextTable t;
  t.setHeader({"metric", "value"});
  t.addRow({"EPE violations", TextTable::integer(ev.epeViolations)});
  t.addRow({"mean |EPE| (nm)", TextTable::num(ev.meanAbsEpeNm, 2)});
  t.addRow({"max |EPE| (nm)", TextTable::num(ev.maxAbsEpeNm, 1)});
  t.addRow({"PV band (nm^2)", TextTable::num(ev.pvbandAreaNm2, 0)});
  t.addRow({"shape violations", TextTable::integer(ev.shapeViolations)});
  t.addRow({"contest score", TextTable::num(ev.score, 0)});
  t.addRow({"mask components", TextTable::integer(mrc.components)});
  t.addRow({"mask rectangles (shots)", TextTable::integer(mrc.rectangles)});
  t.addRow({"mask vertices", TextTable::integer(mrc.contourVertices)});
  t.addRow({"mask perimeter (nm)", TextTable::integer(mrc.perimeterNm)});
  t.addRow({"MRC width viol. (px)", TextTable::integer(mrc.widthViolationPx)});
  t.addRow({"MRC space viol. (px)", TextTable::integer(mrc.spaceViolationPx)});
  t.addRow({"MRC tiny features", TextTable::integer(mrc.tinyFeatures)});
  std::printf("%s", t.render().c_str());
}

int cmdRun(int argc, char** argv) {
  std::string input;
  int caseIndex = 0;
  SolveFlags solve;
  std::string outMask;
  std::string images;
  RuntimeFlags runtime("info");
  std::string checkpoint;
  int checkpointEvery = 5;
  std::string resume;
  int maxRecoveries = 3;
  TelemetryFlags tele;

  double maskLow = 0.0;
  CliParser cli("mosaic_cli run", "run OPC on a target layout");
  cli.addString("input", &input, "target layout (GLP)");
  cli.addInt("case", &caseIndex, "built-in testcase index (1..10)");
  solve.addOptions(cli,
                   "fast | exact | baseline | levelset | edge | rule | none");
  cli.addDouble("mask-low", &maskLow,
                "background transmission (0 = binary, -0.245 = 6% PSM)");
  cli.addString("out-mask", &outMask, "write optimized mask as GLP");
  cli.addString("images", &images, "directory for PGM dumps");
  runtime.addOptions(cli);
  cli.addString("checkpoint", &checkpoint,
                "write optimizer checkpoints to this file");
  cli.addInt("checkpoint-every", &checkpointEvery,
             "iterations between checkpoints");
  cli.addString("resume", &resume, "resume from an optimizer checkpoint");
  cli.addInt("max-recoveries", &maxRecoveries,
             "non-finite rollbacks before aborting with best-so-far");
  tele.addOptions(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();
  const std::unique_ptr<telemetry::RunLog> runLog = tele.begin();

  const int pixel = solve.pixel;
  const std::string& method = solve.method;
  const Layout layout = loadTarget(input, caseIndex);
  LithoSimulator sim = makeSim(pixel);
  std::printf("kernel sets: %.2f s\n", warmCornerKernels(sim));
  const BitGrid target = rasterize(layout, pixel);

  RealGrid mask;
  double runtimeSec = 0.0;
  if (method == "none") {
    mask = noOpcMask(target);
  } else if (method == "rule") {
    mask = ruleOpcMask(target, pixel);
  } else if (method == "edge") {
    WallTimer t;
    EdgeOpcConfig cfg;
    if (solve.iters > 0) cfg.maxIterations = solve.iters;
    const EdgeOpcResult res = runEdgeOpc(sim, target, cfg);
    mask = toReal(res.mask);
    runtimeSec = t.seconds();
  } else if (method == "levelset") {
    WallTimer t;
    LevelSetConfig cfg;
    if (solve.iters > 0) cfg.maxIterations = solve.iters;
    const LevelSetResult res = runLevelSetIlt(sim, target, cfg);
    mask = toReal(res.mask);
    runtimeSec = t.seconds();
  } else {
    IltConfig cfg = solve.iltConfig();
    cfg.maskLow = maskLow;
    cfg.maxRecoveries = maxRecoveries;
    CancelToken interruptToken;
    installTerminationHandler(&interruptToken);
    OptimizeOptions opt;
    opt.checkpointPath = checkpoint;
    opt.checkpointEvery = checkpoint.empty() ? 0 : checkpointEvery;
    opt.resumePath = resume;
    opt.runLog = runLog.get();
    opt.runLogScope = layout.name;
    opt.cancel = &interruptToken;
    const OpcResult res =
        runOpc(sim, target, parseOpcMethod(method), &cfg, {}, {}, opt);
    installTerminationHandler(nullptr);
    mask = res.maskTwoLevel;
    runtimeSec = res.runtimeSec;
    std::printf("stop reason: %s (%d iterations",
                stopReasonName(res.stopReason).c_str(), res.iterations);
    if (res.nonFiniteEvents > 0) {
      std::printf(", %d non-finite events, %d recoveries",
                  res.nonFiniteEvents, res.recoveries);
    }
    std::printf(")\n");
    if (res.stopReason == StopReason::kCanceled) {
      return interruptedExit(
          "run", " after " + std::to_string(res.iterations) + " iterations",
          checkpoint.empty() ? std::string() : "--resume " + checkpoint);
    }
  }

  const MaskPrints prints = printMask(sim, mask, EvalConfig{}.corners);
  const CaseEvaluation ev = evaluatePrints(prints, target, pixel, runtimeSec);
  const MrcResult mrc = checkMask(thresholdGrid(mask, 0.5), pixel);
  std::printf("== %s via %s ==\n", layout.name.c_str(), method.c_str());
  printEvaluation(ev, mrc);

  if (!outMask.empty()) {
    const Layout maskLayout = rasterToLayout(thresholdGrid(mask, 0.5), pixel,
                                             layout.name + "_mask");
    writeGlpFile(outMask, maskLayout);
    std::printf("wrote mask (%zu rects) to %s\n", maskLayout.rects.size(),
                outMask.c_str());
  }
  if (!images.empty()) dumpImages(mask, target, prints, images, layout.name);
  tele.finish(runLog.get());
  return 0;
}

// Exit codes of the batch runner: one diverging clip must never take the
// whole batch down, so partial failure is distinguishable from total.
constexpr int kBatchAllOk = 0;
constexpr int kBatchTotalFailure = 1;
constexpr int kBatchPartialFailure = 2;

/// Parse "1,4,7" into case indices; empty selects the full suite.
std::vector<int> parseCaseList(const std::string& text) {
  std::vector<int> cases;
  if (text.empty()) {
    for (int i = 1; i <= kTestcaseCount; ++i) cases.push_back(i);
    return cases;
  }
  std::size_t begin = 0;
  while (begin <= text.size()) {
    auto end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    MOSAIC_CHECK(!token.empty(), "empty entry in --cases list");
    int index = 0;
    try {
      index = parseWholeInt(token);
    } catch (const std::exception&) {
      throw InvalidArgument("bad case index in --cases: " + token);
    }
    MOSAIC_CHECK(index >= 1 && index <= kTestcaseCount,
                 "case index out of range 1.." << kTestcaseCount << ": "
                                               << token);
    cases.push_back(index);
    begin = end + 1;
  }
  return cases;
}

int cmdBatch(int argc, char** argv) {
  SolveFlags solve;
  std::string cases;
  std::string outDir;
  RuntimeFlags runtime("warn");
  AttemptFlags attempt;
  TelemetryFlags tele;

  CliParser cli("mosaic_cli batch",
                "fault-tolerant OPC over the benchmark suite");
  solve.addOptions(cli);
  cli.addString("cases", &cases, "comma-separated clip indices (default all)");
  cli.addString("out-dir", &outDir, "write optimized masks here as GLP");
  runtime.addOptions(cli);
  attempt.addOptions(cli, "clip");
  tele.addOptions(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();
  AttemptPolicy policy = attempt.policy();
  const std::unique_ptr<telemetry::RunLog> runLog = tele.begin();

  const OpcMethod m = parseOpcMethod(solve.method);
  const std::vector<int> caseList = parseCaseList(cases);
  for (const std::string& dir : {attempt.checkpointDir, outDir}) {
    if (!dir.empty()) std::filesystem::create_directories(dir);
  }

  // One simulator for the whole batch: clips share the kernel sets. The
  // clips run serially here, but sharing is safe even under concurrency —
  // LithoSimulator's const interface is thread-safe by contract (see
  // litho/simulator.hpp), which is what the tile scheduler relies on.
  LithoSimulator sim = makeSim(solve.pixel);

  CancelToken interruptToken;
  installTerminationHandler(&interruptToken);
  warmCornerKernels(sim);  // an interrupt here stops before the first clip
  policy.failpointSite = "batch.clip";
  policy.cancel = &interruptToken;

  struct ClipOutcome {
    std::string name;
    bool ok = false;
    int attempts = 0;
    CaseEvaluation ev;
    int nonFiniteEvents = 0;
    int recoveries = 0;
    double seconds = 0.0;
    std::string error;
  };
  std::vector<ClipOutcome> outcomes;
  bool interrupted = false;
  std::string interruptedClip;

  for (const int index : caseList) {
    if (interruptToken.stopRequested()) {
      interrupted = true;
      break;  // not-yet-started clips are simply left for the resumed run
    }
    ClipOutcome outcome;
    outcome.name = "B";
    outcome.name += std::to_string(index);
    policy.label = outcome.name;
    policy.checkpointPath =
        attempt.checkpointDir.empty()
            ? std::string()
            : attempt.checkpointDir + "/" + outcome.name + ".ckpt";
    // Per-clip isolation (docs/robustness.md, "Fault contract"): any fault
    // in the solve, its evaluation or the mask write fails this clip's
    // attempt, and the batch moves on once its attempts run out.
    WallTimer clipTimer;
    bool canceled = false;
    const AttemptOutcome run =
        runAttempts(policy, [&](int, OptimizeOptions& opt) {
          clipTimer.reset();
          const Layout layout = buildTestcase(index);
          const BitGrid target = rasterize(layout, solve.pixel);
          const IltConfig cfg = solve.iltConfig();
          opt.runLog = runLog.get();
          const OpcResult res = runOpc(sim, target, m, &cfg, {}, {}, opt);
          // Signal mid-clip: the optimizer already checkpointed (when
          // armed); the batch stops here and leaves this clip resumable.
          canceled = res.stopReason == StopReason::kCanceled;
          if (canceled) return;
          outcome.ev =
              evaluateMask(sim, res.maskTwoLevel, target, res.runtimeSec);
          outcome.nonFiniteEvents = res.nonFiniteEvents;
          outcome.recoveries = res.recoveries;
          if (!outDir.empty()) {
            const Layout maskLayout = rasterToLayout(
                res.maskBinary, solve.pixel, layout.name + "_mask");
            writeGlpFile(outDir + "/" + layout.name + "_mask.glp",
                         maskLayout);
          }
        });
    outcome.seconds = clipTimer.seconds();
    outcome.attempts = run.attempts;
    outcome.error = run.error;
    if (canceled || run.stopped) {
      interrupted = true;
      interruptedClip = outcome.name;
      outcome.error = "interrupted";
    } else {
      outcome.ok = run.ok;
    }
    if (runLog) {
      telemetry::JsonObject obj;
      obj.set("type", "clip");
      obj.set("clip", outcome.name);
      obj.set("status", outcome.ok ? "ok" : "failed");
      obj.set("attempts", outcome.attempts);
      obj.set("recoveries", outcome.recoveries);
      obj.set("non_finite", outcome.nonFiniteEvents);
      obj.set("wall_ms", outcome.seconds * 1000.0);
      if (outcome.ok) {
        obj.set("epe_violations", outcome.ev.epeViolations);
        obj.set("pvband_nm2", outcome.ev.pvbandAreaNm2);
        obj.set("score", outcome.ev.score);
      }
      if (!outcome.error.empty()) obj.set("error", outcome.error);
      runLog->write(obj);
    }
    outcomes.push_back(std::move(outcome));
  }

  TextTable t;
  t.setHeader({"clip", "status", "attempts", "EPE viol", "PV band", "score",
               "recov", "time (s)", "detail"});
  int succeeded = 0;
  for (const ClipOutcome& o : outcomes) {
    std::string detail = o.error;
    if (detail.size() > 48) detail = detail.substr(0, 45) + "...";
    if (o.ok) {
      ++succeeded;
      t.addRow({o.name, o.attempts > 1 ? "ok (retried)" : "ok",
                TextTable::integer(o.attempts),
                TextTable::integer(o.ev.epeViolations),
                TextTable::num(o.ev.pvbandAreaNm2, 0),
                TextTable::num(o.ev.score, 0),
                TextTable::integer(o.recoveries), TextTable::num(o.seconds, 1),
                detail});
    } else {
      t.addRow({o.name, "FAILED", TextTable::integer(o.attempts), "-", "-",
                "-", "-", TextTable::num(o.seconds, 1), detail});
    }
  }
  // Wall-time spread + total retries across the batch: the quick answer to
  // "was one clip pathologically slow" without opening the run log.
  double minSec = 0.0;
  double maxSec = 0.0;
  double sumSec = 0.0;
  int totalRetries = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ClipOutcome& o = outcomes[i];
    minSec = i == 0 ? o.seconds : std::min(minSec, o.seconds);
    maxSec = std::max(maxSec, o.seconds);
    sumSec += o.seconds;
    totalRetries += std::max(0, o.attempts - 1);
  }
  const double meanSec =
      outcomes.empty() ? 0.0 : sumSec / static_cast<double>(outcomes.size());
  t.addRow({"(all)", std::to_string(succeeded) + "/" +
                         std::to_string(outcomes.size()) + " ok",
            TextTable::integer(totalRetries) + " retries", "-", "-", "-", "-",
            TextTable::num(minSec, 1) + "/" + TextTable::num(meanSec, 1) +
                "/" + TextTable::num(maxSec, 1),
            "min/mean/max time"});
  std::printf("%s", t.render().c_str());
  std::printf("%d/%zu clips succeeded\n", succeeded, outcomes.size());
  std::printf("%s\n", ResourceProbe::sample().oneLine().c_str());

  if (runLog) {
    telemetry::JsonObject obj;
    obj.set("type", "batch_summary");
    obj.set("clips", static_cast<long long>(outcomes.size()));
    obj.set("succeeded", succeeded);
    obj.set("total_retries", totalRetries);
    obj.set("min_wall_s", minSec);
    obj.set("mean_wall_s", meanSec);
    obj.set("max_wall_s", maxSec);
    runLog->write(obj);
  }
  tele.finish(runLog.get());
  installTerminationHandler(nullptr);

  if (interrupted) {
    return interruptedExit(
        "batch",
        interruptedClip.empty() ? std::string()
                                : " during clip " + interruptedClip,
        attempt.resumeArgs());
  }

  if (succeeded == static_cast<int>(outcomes.size())) return kBatchAllOk;
  return succeeded == 0 ? kBatchTotalFailure : kBatchPartialFailure;
}

// Exit codes of the chip runner mirror the batch runner: a degraded chip
// (some tiles fell back to the uncorrected pattern) is distinguishable
// from a clean one and from total failure.
int cmdChip(int argc, char** argv) {
  std::string input;
  int chipSize = 0;
  int caseIndex = 0;
  int replicate = 2;
  SolveFlags solve;
  int tileSize = 1024;
  int halo = -1;
  AttemptFlags attempt;
  std::string kernelCache;
  std::string patternCache;
  int cacheMaxMb = 512;
  std::string ecoBase;
  std::string outMask;
  RuntimeFlags runtime("info");
  TelemetryFlags tele;

  CliParser cli("mosaic_cli chip",
                "full-chip OPC: tile, optimize in parallel, stitch");
  cli.addString("input", &input, "chip layout (GLP)");
  cli.addInt("chip-size", &chipSize,
             "chip window in nm for --input (0 = tile-size * replicate)");
  cli.addInt("case", &caseIndex,
             "built-in testcase replicated into a synthetic chip (1..10)");
  cli.addInt("replicate", &replicate,
             "replication factor for --case (K x K clips)");
  solve.addOptions(cli);
  cli.addInt("tile-size", &tileSize, "core tile edge in nm");
  cli.addInt("halo", &halo,
             "halo margin in nm (-1 = 2x optical interaction radius)");
  attempt.addOptions(cli, "tile");
  cli.addString("kernel-cache", &kernelCache,
                "directory for on-disk kernel caching");
  cli.addString("pattern-cache", &patternCache,
                "pattern-library cache directory: reuse solved tile masks "
                "across runs (docs/caching.md)");
  cli.addInt("cache-max-mb", &cacheMaxMb,
             "pattern-cache size cap in MB (LRU-evicted; 0 = unlimited)");
  cli.addString("eco-base", &ecoBase,
                "incremental re-OPC: pattern-cache directory of a previous "
                "run; only changed tiles re-optimize");
  cli.addString("out-mask", &outMask, "write the stitched mask as GLP");
  runtime.addOptions(cli);
  tele.addOptions(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();
  const std::unique_ptr<telemetry::RunLog> runLog = tele.begin();

  const int pixel = solve.pixel;
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = tileSize;
  cfg.tiling.haloNm = halo;
  cfg.tiling.pixelNm = pixel;
  cfg.optics.pixelNm = pixel;
  cfg.method = parseOpcMethod(solve.method);
  cfg.iterations = solve.iters;
  cfg.tileDeadlineSeconds = solve.deadline;
  cfg.retries = attempt.retries;
  cfg.backoffMs = attempt.backoffMs;
  cfg.checkpointDir = attempt.checkpointDir;
  cfg.checkpointEvery = attempt.checkpointEvery;
  cfg.resume = attempt.resume;
  cfg.kernelCacheDir = kernelCache;
  cfg.patternCacheDir = patternCache;
  cfg.patternCacheMaxBytes = static_cast<long long>(cacheMaxMb) << 20;
  cfg.ecoBaseDir = ecoBase;
  cfg.runLog = runLog.get();
  CancelToken interruptToken;
  installTerminationHandler(&interruptToken);
  cfg.cancel = &interruptToken;

  Layout chip;
  if (!input.empty()) {
    GlpReadOptions glp;
    glp.clipSizeNm = chipSize > 0 ? chipSize : tileSize * replicate;
    // Chip coordinates are absolute: recentering would re-normalize a
    // revised layout and silently cancel (or smear across every tile) the
    // very edits the ECO flow diffs for.
    glp.recenter = false;
    chip = readGlpFile(input, glp);
    for (const RectNm& r : chip.rects) {
      MOSAIC_CHECK(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= chip.sizeNm &&
                       r.y1 <= chip.sizeNm,
                   "chip input rect [" << r.x0 << "," << r.y0 << " " << r.x1
                                       << "," << r.y1
                                       << "] lies outside the chip [0,"
                                       << chip.sizeNm
                                       << ")^2; pass --chip-size to enlarge");
    }
  } else {
    MOSAIC_CHECK(caseIndex >= 1 && caseIndex <= kTestcaseCount,
                 "pass --input <chip.glp> or --case 1..10");
    MOSAIC_CHECK(replicate >= 1, "--replicate must be >= 1");
    chip = replicateLayout(buildTestcase(caseIndex), replicate, replicate);
  }

  const ChipResult res = optimizeChip(chip, cfg);
  const ChipPartition& part = res.partition;
  std::printf("kernel sets: %.2f s\n", res.kernelSeconds);
  std::printf("== chip %s: %d x %d nm, %dx%d tiles of %d nm core + %d nm "
              "halo (%d px windows), %d threads ==\n",
              chip.name.c_str(), part.chipSizeNm, part.chipSizeNm,
              part.tileRows, part.tileCols, part.tileSizeNm, part.haloNm,
              part.windowGrid(), hardwareParallelism());

  TextTable t;
  t.setHeader({"tile", "status", "attempts", "iters", "recov", "time (s)",
               "detail"});
  for (const TileOutcome& o : res.outcomes) {
    std::string detail = o.error;
    if (detail.size() > 48) detail = detail.substr(0, 45) + "...";
    std::string name = "r";
    name += std::to_string(o.row);
    name += 'c';
    name += std::to_string(o.col);
    std::string status;
    if (o.skippedEmpty) {
      status = "empty";
    } else if (o.fromCache) {
      status = "cached";
    } else if (o.ok) {
      status = o.attempts > 1 ? "ok (retried)"
               : o.warmStarted ? "ok (warm)"
                               : "ok";
    } else {
      status = "FALLBACK";
    }
    t.addRow({name, status, TextTable::integer(o.attempts),
              TextTable::integer(o.iterations),
              TextTable::integer(o.recoveries), TextTable::num(o.seconds, 1),
              detail});
  }
  std::printf("%s", t.render().c_str());
  std::printf("%d/%d tiles ok in %.1f s\n", res.succeeded, part.tileCount(),
              res.wallSeconds);
  std::printf("%s\n", ResourceProbe::sample().oneLine().c_str());

  const SeamReport& seam = res.stitched.report;
  std::printf("seam consistency: %lld/%lld overlap px disagree (%.4f%%), "
              "%lld core mismatches, %lld non-finite px\n",
              seam.disagreeingPixels, seam.overlapPixels,
              100.0 * seam.disagreementFraction, seam.coreMismatchPixels,
              seam.nonFinitePixels);

  if (res.cacheEnabled) {
    const PatternStoreStats& cs = res.cacheStats;
    std::printf("pattern cache: %llu exact, %llu translated, %llu near-miss, "
                "%llu miss (%.1f%% hit rate), %llu inserted, %llu evicted, "
                "%llu quarantined; %lld entries / %.1f MB on disk\n",
                static_cast<unsigned long long>(cs.exactHits),
                static_cast<unsigned long long>(cs.translatedHits),
                static_cast<unsigned long long>(cs.nearMissHits),
                static_cast<unsigned long long>(cs.misses),
                100.0 * cs.hitRate(),
                static_cast<unsigned long long>(cs.inserts),
                static_cast<unsigned long long>(cs.evictions),
                static_cast<unsigned long long>(cs.quarantined), cs.entries,
                static_cast<double>(cs.bytes) / (1 << 20));
  }
  if (res.eco.active) {
    std::printf("eco: %d/%d tiles changed vs %s%s\n", res.eco.tilesChanged,
                res.eco.tilesTotal, ecoBase.c_str(),
                res.eco.baseValid ? "" : " (no base manifest; all treated "
                                         "as changed)");
  }

  if (!outMask.empty()) {
    const Layout maskLayout =
        rasterToLayout(res.stitched.maskBinary, pixel, chip.name + "_mask");
    writeGlpFile(outMask, maskLayout);
    std::printf("wrote stitched mask (%zu rects) to %s\n",
                maskLayout.rects.size(), outMask.c_str());
  }

  tele.finish(runLog.get());
  installTerminationHandler(nullptr);

  if (res.interrupted) {
    return interruptedExit("chip",
                           " (" + std::to_string(res.succeeded) + "/" +
                               std::to_string(part.tileCount()) +
                               " tiles finished)",
                           attempt.resumeArgs());
  }

  if (seam.nonFinitePixels > 0 || res.succeeded == 0) return 1;
  return res.failed == 0 ? 0 : 2;
}

int cmdSimulate(int argc, char** argv) {
  std::string input;
  int caseIndex = 0;
  int pixel = 4;
  double focus = 0.0;
  double dose = 1.0;
  std::string images;
  RuntimeFlags runtime("warn");

  CliParser cli("mosaic_cli simulate",
                "forward-simulate a mask at a process corner");
  cli.addString("input", &input, "mask layout (GLP)");
  cli.addInt("case", &caseIndex, "built-in testcase as the mask (1..10)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addDouble("focus", &focus, "defocus in nm");
  cli.addDouble("dose", &dose, "relative exposure dose");
  cli.addString("images", &images, "directory for PGM dumps");
  runtime.addLogOption(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();

  const Layout layout = loadTarget(input, caseIndex);
  LithoSimulator sim = makeSim(pixel);
  const BitGrid maskBits = rasterize(layout, pixel);
  const RealGrid mask = toReal(maskBits);

  const ProcessCorner corner{focus, dose};
  const RealGrid aerial = sim.aerial(mask, corner);
  const BitGrid printed = sim.printBinary(aerial);

  double peak = 0.0;
  for (double v : aerial) peak = std::max(peak, v);
  std::printf("mask %s at focus %.0f nm, dose %.2f:\n", layout.name.c_str(),
              focus, dose);
  std::printf("  peak intensity   %.4f (threshold %.3f)\n", peak,
              sim.resist().threshold);
  std::printf("  printed pixels   %lld (mask pixels %lld)\n",
              countSet(printed), countSet(maskBits));
  std::printf("  printed features %d, holes %d\n", countComponents(printed),
              countHoles(printed));
  if (!images.empty()) {
    const int n = sim.gridSize();
    writePgm(images + "/" + layout.name + "_aerial.pgm",
             {aerial.data(), aerial.size()}, n, n, 0.0, std::max(1.0, peak));
    writePgm(images + "/" + layout.name + "_printed.pgm",
             {toReal(printed).data(), static_cast<std::size_t>(n) * n}, n, n);
    std::printf("wrote images to %s\n", images.c_str());
  }
  return 0;
}

int cmdEvaluate(int argc, char** argv) {
  std::string input;
  std::string targetGlp;
  int targetCase = 0;
  int pixel = 4;
  RuntimeFlags runtime("warn");

  CliParser cli("mosaic_cli evaluate",
                "contest metrics + MRC for a mask against a target");
  cli.addString("input", &input, "mask layout (GLP)");
  cli.addString("target", &targetGlp, "target layout (GLP)");
  cli.addInt("target-case", &targetCase, "built-in target testcase (1..10)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  runtime.addLogOption(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();

  MOSAIC_CHECK(!input.empty(), "--input <mask.glp> is required");
  const Layout maskLayout = readGlpFile(input);
  const Layout targetLayout = loadTarget(targetGlp, targetCase);
  LithoSimulator sim = makeSim(pixel);
  warmCornerKernels(sim);
  const BitGrid mask = rasterize(maskLayout, pixel);
  const BitGrid target = rasterize(targetLayout, pixel);

  const CaseEvaluation ev = evaluateMask(sim, toReal(mask), target, 0.0);
  const MrcResult mrc = checkMask(mask, pixel);
  std::printf("== mask %s vs target %s ==\n", maskLayout.name.c_str(),
              targetLayout.name.c_str());
  printEvaluation(ev, mrc);
  return 0;
}

/// Read the port a mosaic_serve daemon wrote to its work-dir port file.
int readPortFile(const std::string& path) {
  std::ifstream in(path);
  MOSAIC_CHECK(in.good(), "cannot read port file: " << path);
  int port = 0;
  in >> port;
  MOSAIC_CHECK(port > 0 && port <= 65535,
               "bad port in port file " << path << ": " << port);
  return port;
}

/// One request/response round trip on an established channel.
telemetry::JsonValue roundTrip(LineChannel& channel,
                               const telemetry::JsonObject& request,
                               int timeoutMs) {
  channel.writeLine(request.str());
  std::string line;
  MOSAIC_CHECK(channel.readLine(&line, timeoutMs),
               "no response from mosaic_serve (timeout or closed)");
  return telemetry::JsonValue::parse(line);
}

int cmdSubmit(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string portFile;
  std::string caseName = "B1";
  SolveFlags solve{.pixel = 16};  // the daemon's default job size
  int maxAttempts = 2;
  int checkpointEvery = 5;
  std::string jobFile;
  std::string watch;
  bool wait = false;
  int pollMs = 200;
  double timeoutSec = 0.0;
  RuntimeFlags runtime("warn");

  CliParser cli("mosaic_cli submit",
                "submit OPC jobs to a mosaic_serve daemon and poll results");
  cli.addString("host", &host, "daemon address (dotted quad)");
  cli.addInt("port", &port, "daemon port (0 = read --port-file)");
  cli.addString("port-file", &portFile,
                "read the port from a mosaic_serve work-dir serve.port file");
  cli.addString("case", &caseName, "job target: B1..B10 or random:<seed>");
  solve.addOptions(cli);
  cli.addInt("max-attempts", &maxAttempts, "attempts before the job fails");
  cli.addInt("checkpoint-every", &checkpointEvery,
             "iterations between the job's resume checkpoints");
  cli.addString("job-file", &jobFile,
                "submit every line of this JSONL job-spec file instead");
  cli.addString("watch", &watch,
                "poll an existing job id instead of submitting");
  cli.addFlag("wait", &wait, "poll until terminal and print the result");
  cli.addInt("poll-ms", &pollMs, "status poll interval while waiting");
  cli.addDouble("timeout", &timeoutSec,
                "give up waiting after this many seconds (0 = forever)");
  runtime.addLogOption(cli);
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();
  MOSAIC_CHECK(pollMs >= 1, "--poll-ms must be >= 1");
  if (port == 0) {
    MOSAIC_CHECK(!portFile.empty(), "pass --port or --port-file");
    port = readPortFile(portFile);
  }

  LineChannel channel(connectTcp(host, port));
  constexpr int kReplyTimeoutMs = 10000;

  // Collect the job ids to track: from --watch, from --job-file, or from
  // the flag-built single spec.
  std::vector<std::string> ids;
  if (!watch.empty()) {
    ids.push_back(watch);
  } else {
    std::vector<std::string> submitLines;
    if (!jobFile.empty()) {
      std::ifstream in(jobFile);
      MOSAIC_CHECK(in.good(), "cannot read job file: " << jobFile);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty()) submitLines.push_back(line);
      }
      MOSAIC_CHECK(!submitLines.empty(), "job file is empty: " << jobFile);
    }
    std::vector<telemetry::JsonObject> requests;
    if (submitLines.empty()) {
      serve::JobSpec spec;
      spec.caseName = caseName;
      spec.method = solve.method;
      spec.pixelNm = solve.pixel;
      spec.iterations = solve.iters;
      spec.deadlineSeconds = solve.deadline;
      spec.maxAttempts = maxAttempts;
      spec.checkpointEvery = checkpointEvery;
      telemetry::JsonObject req;
      req.set("op", "submit");
      serve::specToJson(spec, &req);
      requests.push_back(std::move(req));
    } else {
      for (const std::string& line : submitLines) {
        const serve::JobSpec spec =
            serve::specFromJson(telemetry::JsonValue::parse(line));
        telemetry::JsonObject req;
        req.set("op", "submit");
        serve::specToJson(spec, &req);
        requests.push_back(std::move(req));
      }
    }
    for (const telemetry::JsonObject& req : requests) {
      const telemetry::JsonValue reply =
          roundTrip(channel, req, kReplyTimeoutMs);
      if (!reply.boolOr("ok", false)) {
        std::printf("{\"ok\":false,\"error\":\"%s\",\"message\":\"%s\"}\n",
                    reply.stringOr("error", "internal").c_str(),
                    reply.stringOr("message", "").c_str());
        return 1;
      }
      const std::string id = reply.stringOr("job", "");
      std::printf("{\"ok\":true,\"job\":\"%s\"}\n", id.c_str());
      ids.push_back(id);
    }
  }

  if (!wait) return 0;

  // Follow each job's push stream to its end, then fetch and print the
  // result. The watch op streams one JSON line per optimizer iteration
  // (printed as received — live progress instead of a status poll) and
  // closes the connection after the terminal "ev":"end" line, so each
  // watch gets its own connection; the result op reuses the main channel.
  WallTimer waitTimer;
  bool allDone = true;
  for (const std::string& id : ids) {
    {
      LineChannel watchChannel(connectTcp(host, port));
      telemetry::JsonObject req;
      req.set("op", "watch");
      req.set("job", id);
      const telemetry::JsonValue ack =
          roundTrip(watchChannel, req, kReplyTimeoutMs);
      MOSAIC_CHECK(ack.boolOr("ok", false),
                   "watch failed for " << id << ": "
                                       << ack.stringOr("message", ""));
      std::string pushed;
      for (;;) {
        if (!watchChannel.readLine(&pushed, pollMs)) {
          MOSAIC_CHECK(!watchChannel.eofSeen(),
                       "watch stream for " << id
                                           << " closed without an end event");
          MOSAIC_CHECK(timeoutSec <= 0.0 || waitTimer.seconds() < timeoutSec,
                       "timed out waiting for " << id);
          continue;
        }
        std::printf("%s\n", pushed.c_str());
        std::fflush(stdout);
        const telemetry::JsonValue event = telemetry::JsonValue::parse(pushed);
        if (event.stringOr("ev", "") == "end") break;
      }
    }
    telemetry::JsonObject req;
    req.set("op", "result");
    req.set("job", id);
    const telemetry::JsonValue result =
        roundTrip(channel, req, kReplyTimeoutMs);
    // Print the raw result line: it is already the documented protocol
    // shape, and scripts (the serve smoke test) parse it directly.
    telemetry::JsonObject echo;
    echo.set("ok", result.boolOr("ok", false));
    echo.set("job", id);
    echo.set("state", result.stringOr("state", "unknown"));
    if (const telemetry::JsonValue* hash = result.find("mask_hash")) {
      echo.set("mask_hash", hash->asString());
    }
    echo.set("iterations", result.intOr("iterations", 0));
    echo.set("wall_s", result.numberOr("wall_s", 0.0));
    if (const telemetry::JsonValue* err = result.find("error")) {
      echo.set("error", err->asString());
    }
    std::printf("%s\n", echo.str().c_str());
    if (!result.boolOr("ok", false)) allDone = false;
  }
  return allDone ? 0 : 1;
}

int cmdExportSuite(int argc, char** argv) {
  std::string dir = ".";
  CliParser cli("mosaic_cli export-suite",
                "write the built-in clips B1..B10 as GLP files");
  cli.addString("dir", &dir, "output directory");
  if (!cli.parse(argc, argv)) return 0;
  for (const Layout& layout : buildAllTestcases()) {
    const std::string path = dir + "/" + layout.name + ".glp";
    writeGlpFile(path, layout);
    std::printf("wrote %s (%zu rects)\n", path.c_str(), layout.rects.size());
  }
  return 0;
}

void printUsage() {
  std::puts(
      "mosaic_cli -- process-window aware inverse lithography (MOSAIC)\n"
      "\n"
      "usage: mosaic_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  run           OPC a target layout and write the optimized mask\n"
      "  batch         fault-tolerant OPC over the benchmark suite\n"
      "                (exit 0 = all clips ok, 2 = partial failure,\n"
      "                 1 = total failure)\n"
      "  chip          full-chip OPC: halo-aware tiling, parallel tile\n"
      "                optimization, seam-consistent stitching (exit codes\n"
      "                as batch)\n"
      "  simulate      forward-simulate a mask at a process corner\n"
      "  evaluate      contest metrics + MRC for a mask against a target\n"
      "  export-suite  write the built-in clips B1..B10 as GLP files\n"
      "  submit        submit OPC jobs to a mosaic_serve daemon and poll\n"
      "                for results (docs/serving.md)\n"
      "\n"
      "interrupts: run/batch/chip exit with code 3 on SIGINT/SIGTERM after\n"
      "checkpointing in-flight work (see docs/serving.md)\n"
      "\n"
      "run `mosaic_cli <command> --help` for the command's options");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    failpoint::configureFromEnv();
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
      printUsage();
      return argc < 2 ? 1 : 0;
    }
    const std::string command = argv[1];
    if (command == "run") return cmdRun(argc - 1, argv + 1);
    if (command == "batch") return cmdBatch(argc - 1, argv + 1);
    if (command == "chip") return cmdChip(argc - 1, argv + 1);
    if (command == "simulate") return cmdSimulate(argc - 1, argv + 1);
    if (command == "evaluate") return cmdEvaluate(argc - 1, argv + 1);
    if (command == "export-suite") return cmdExportSuite(argc - 1, argv + 1);
    if (command == "submit") return cmdSubmit(argc - 1, argv + 1);
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    printUsage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mosaic_cli failed: %s\n", e.what());
    return 1;
  }
}
