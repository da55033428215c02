/// \file mosaic_serve.cpp
/// The `mosaic_serve` daemon: a long-lived, fault-tolerant OPC job service
/// (docs/serving.md). Clients speak line-delimited JSON over a loopback
/// TCP socket: submit a job, get an id, poll status, fetch the result.
///
///   mosaic_serve --work-dir /tmp/serve --port 0 --workers 2
///
/// The bound port is printed and written to <work-dir>/serve.port. Jobs
/// are journaled before they run and checkpointed while they run, so a
/// crashed or killed daemon restarted on the same work directory resumes
/// every unfinished job bit-identically. SIGINT/SIGTERM drain gracefully:
/// running jobs checkpoint at their next iteration and the process exits
/// with code 3 (interrupted), leaving the journal ready for the next
/// incarnation.

#include <cstdio>
#include <fstream>
#include <memory>

#include "serve/http.hpp"
#include "serve/server.hpp"
#include "support/cli.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/signal.hpp"
#include "support/telemetry/flightrec.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/runlog.hpp"

namespace {

using namespace mosaic;

int serveMain(int argc, char** argv) {
  std::string workDir;
  int port = 0;
  int httpPort = -1;
  int workers = 2;
  int queueCapacity = 8;
  int backoffMs = 25;
  bool cold = false;
  std::string patternCache;
  int cacheMaxMb = 512;
  RuntimeFlags runtime("info");
  std::string metricsOut;
  std::string runLogPath;

  CliParser cli("mosaic_serve",
                "fault-tolerant ILT job service over line-delimited JSON");
  cli.addString("work-dir", &workDir,
                "journal/checkpoint/port-file directory (required)");
  cli.addInt("port", &port, "listen port on 127.0.0.1 (0 = ephemeral)");
  cli.addInt("http-port", &httpPort,
             "HTTP observability port for /metrics, /healthz, /jobs "
             "(0 = ephemeral, written to <work-dir>/serve.http.port; "
             "-1 = disabled)");
  cli.addInt("workers", &workers, "worker threads sharing warm simulators");
  cli.addInt("queue", &queueCapacity,
             "bounded queue capacity (admission control)");
  cli.addInt("backoff-ms", &backoffMs, "retry backoff per failed attempt");
  cli.addFlag("cold", &cold,
              "disable the warm simulator pool (each job recomputes kernels)");
  cli.addString("pattern-cache", &patternCache,
                "pattern-library cache directory: repeated jobs return the "
                "cached mask (docs/caching.md)");
  cli.addInt("cache-max-mb", &cacheMaxMb,
             "pattern-cache size cap in MB (LRU-evicted; 0 = unlimited)");
  runtime.addOptions(cli);
  cli.addString("metrics-out", &metricsOut,
                "write the metrics snapshot (JSON) here at exit");
  cli.addString("run-log", &runLogPath,
                "append per-iteration/job JSONL telemetry here");
  if (!cli.parse(argc, argv)) return 0;
  runtime.apply();
  MOSAIC_CHECK(!workDir.empty(), "--work-dir is required");

  // Flight recorder: always on. A fatal signal (SIGSEGV/SIGABRT/SIGBUS)
  // dumps the event ring to <work-dir>/flightrec.jsonl from the handler;
  // GET /debug/flightrec serves the same ring live.
  telemetry::flightrec::installCrashHandlers(workDir + "/flightrec.jsonl");

  std::unique_ptr<telemetry::RunLog> runLog;
  if (!runLogPath.empty()) {
    runLog = std::make_unique<telemetry::RunLog>(runLogPath);
  }

  // Signal → token → accept loop + every running optimizer. First signal
  // drains with checkpoints; a second one hard-exits (support/signal.hpp).
  CancelToken stopToken;
  installTerminationHandler(&stopToken);

  serve::ServeConfig cfg;
  cfg.workDir = workDir;
  cfg.workers = workers;
  cfg.queueCapacity = queueCapacity;
  cfg.backoffMs = backoffMs;
  cfg.reuseSimulators = !cold;
  cfg.patternCacheDir = patternCache;
  cfg.patternCacheMaxBytes = static_cast<long long>(cacheMaxMb) << 20;
  cfg.runLog = runLog.get();
  serve::JobService service(cfg);

  serve::ServerOptions opts;
  opts.port = port;
  serve::ServeServer server(service, opts);

  // Optional HTTP observability plane: /metrics (Prometheus), /healthz,
  // /jobs, /debug/flightrec. Port file mirrors serve.port so scripts can
  // discover an ephemeral bind.
  std::unique_ptr<serve::HttpServer> http;
  if (httpPort >= 0) {
    http = std::make_unique<serve::HttpServer>(service, httpPort);
    std::ofstream portFile(workDir + "/serve.http.port", std::ios::trunc);
    MOSAIC_CHECK(portFile.good(),
                 "cannot write port file in work dir: " << workDir);
    portFile << http->port() << "\n";
  }

  std::printf("mosaic_serve listening on 127.0.0.1:%d (work dir %s, "
              "%d workers, queue %d%s)\n",
              server.port(), workDir.c_str(), workers, queueCapacity,
              service.recoveredJobs() > 0
                  ? (", recovered " + std::to_string(service.recoveredJobs()) +
                     " job(s)")
                        .c_str()
                  : "");
  if (http) {
    std::printf("http observability on 127.0.0.1:%d "
                "(/metrics /healthz /jobs /debug/flightrec)\n",
                http->port());
  }
  std::fflush(stdout);

  const serve::DrainMode mode = server.serveForever(&stopToken);
  http.reset();  // stop answering /healthz before the drain begins
  const bool interrupted = terminationSignal() != 0;
  if (interrupted) {
    std::printf("caught %s: draining with checkpoints...\n",
                terminationSignalName());
    std::fflush(stdout);
  }
  service.drain(mode);

  const serve::ServiceStats stats = service.stats();
  std::printf("serve exiting: %d done, %d failed, %d canceled, %d expired, "
              "%d queued for the next incarnation\n",
              stats.done, stats.failed, stats.canceled, stats.expired,
              stats.queued);

  if (!metricsOut.empty()) {
    const telemetry::MetricsSnapshot snap = telemetry::metrics().snapshot();
    std::ofstream out(metricsOut, std::ios::trunc);
    MOSAIC_CHECK(out.good(), "cannot open for writing: " << metricsOut);
    out << snap.toJson() << "\n";
  }
  // Join the executor workers before returning so the exit is clean under
  // TSan/ASan (the pool would otherwise join in a static destructor).
  shutdownParallelPool();
  return interrupted ? kExitInterrupted : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    failpoint::configureFromEnv();
    return serveMain(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mosaic_serve failed: %s\n", e.what());
    // Fatal errors dump the flight recorder too (crash handlers only fire
    // on signals); the path was armed by installCrashHandlers.
    mosaic::telemetry::flightrec::record("fatal", e.what());
    mosaic::telemetry::flightrec::dumpArmedPath();
    return 1;
  }
}
