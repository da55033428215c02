/// Unit tests for the support library: errors, logging, CLI, tables, RNG,
/// image writers, parallel utilities, atomic file publication.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "support/atomic_file.hpp"
#include "support/cancel.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/image_io.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

// ---------------------------------------------------------------- errors

TEST(Error, CheckThrowsInvalidArgumentWithContext) {
  try {
    MOSAIC_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW(MOSAIC_ASSERT(false, "boom"), InternalError);
}

TEST(Error, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(MOSAIC_CHECK(true, "fine"));
  EXPECT_NO_THROW(MOSAIC_ASSERT(true, "fine"));
}

TEST(Error, HierarchyRootsAtError) {
  EXPECT_THROW(
      { throw InvalidArgument("x"); }, Error);
  EXPECT_THROW(
      { throw InternalError("x"); }, Error);
}

// ----------------------------------------------------------------- log

TEST(Log, ParseLevels) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(parseLogLevel("off"), LogLevel::kOff);
  EXPECT_THROW(parseLogLevel("loud"), InvalidArgument);
}

TEST(Log, SetAndGetLevel) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::kError);
  EXPECT_EQ(logLevel(), LogLevel::kError);
  setLogLevel(before);
}

// ----------------------------------------------------------------- cli

TEST(Cli, ParsesAllKinds) {
  int i = 1;
  double d = 2.5;
  std::string s = "abc";
  bool f = false;
  CliParser cli("prog", "test");
  cli.addInt("count", &i, "a count");
  cli.addDouble("ratio", &d, "a ratio");
  cli.addString("name", &s, "a name");
  cli.addFlag("verbose", &f, "a flag");

  const char* argv[] = {"prog",   "--count", "7",      "--ratio=0.25",
                        "--name", "xyz",     "--verbose"};
  EXPECT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(s, "xyz");
  EXPECT_TRUE(f);
}

TEST(Cli, DefaultsSurviveWhenAbsent) {
  int i = 42;
  CliParser cli("prog", "test");
  cli.addInt("count", &i, "a count");
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(i, 42);
}

TEST(Cli, FlagExplicitFalse) {
  bool f = true;
  CliParser cli("prog", "test");
  cli.addFlag("verbose", &f, "a flag");
  const char* argv[] = {"prog", "--verbose=false"};
  EXPECT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(f);
}

TEST(Cli, Errors) {
  int i = 0;
  CliParser cli("prog", "test");
  cli.addInt("count", &i, "a count");
  {
    const char* argv[] = {"prog", "--unknown", "3"};
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
  }
  {
    const char* argv[] = {"prog", "--count"};
    EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
  }
  {
    const char* argv[] = {"prog", "--count", "notanint"};
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
  }
  {
    const char* argv[] = {"prog", "count"};
    EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
  }
  // A number must be the whole value: std::stoi alone reads "7x" as 7.
  for (const char* bad : {"7x", "4.5", "1e3"}) {
    const char* argv[] = {"prog", "--count", bad};
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument) << bad;
  }
  double ratio = 0.0;
  cli.addDouble("ratio", &ratio, "a ratio");
  {
    const char* argv[] = {"prog", "--ratio", "0.25s"};
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
  }
}

TEST(Cli, MalformedInputPrintsUsageToStderr) {
  int i = 0;
  CliParser cli("prog", "a test program");
  cli.addInt("count", &i, "a count");
  {
    const char* argv[] = {"prog", "--unknown", "3"};
    testing::internal::CaptureStderr();
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown option"), std::string::npos) << err;
    EXPECT_NE(err.find("prog -- a test program"), std::string::npos) << err;
    EXPECT_NE(err.find("--count"), std::string::npos) << err;
  }
  {
    const char* argv[] = {"prog", "--count", "notanint"};
    testing::internal::CaptureStderr();
    EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("prog -- a test program"), std::string::npos) << err;
  }
}

TEST(Cli, DuplicateOptionRejected) {
  int i = 0;
  CliParser cli("prog", "test");
  cli.addInt("count", &i, "a count");
  EXPECT_THROW(cli.addInt("count", &i, "again"), InvalidArgument);
}

TEST(Cli, HelpReturnsFalseAndPrintsUsage) {
  int i = 0;
  CliParser cli("prog", "does things");
  cli.addInt("count", &i, "a count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("does things"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("default: 0"), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAligned) {
  TextTable t;
  t.setHeader({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  TextTable t;
  t.setHeader({"a", "b"});
  EXPECT_THROW(t.addRow({"only one"}), InvalidArgument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::integer(-5), "-5");
}

TEST(Table, RenderWithoutHeaderThrows) {
  TextTable t;
  EXPECT_THROW(t.render(), InvalidArgument);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

// --------------------------------------------------------------- timer

TEST(CancelToken, DeadlinesPastTheClockSaturateInsteadOfExpiring) {
  // 1e300 s and +inf overflow the clock's integer ticks (a cast that used
  // to be undefined and read as already expired): they saturate to its
  // last time point, armed and not expired.
  for (const double seconds :
       {1e300, std::numeric_limits<double>::infinity()}) {
    CancelToken token;
    token.setDeadlineIn(seconds);
    EXPECT_EQ(token.deadline(), CancelToken::Clock::time_point::max())
        << seconds;
    EXPECT_FALSE(token.expired()) << seconds;
    EXPECT_FALSE(token.stopRequested()) << seconds;
  }
}

TEST(CancelToken, RepresentableDeadlinesArmFromNow) {
  // 1e9 s (about 32 years) fits the clock: now + 1e9 s, as before.
  CancelToken token;
  const auto before = CancelToken::Clock::now();
  token.setDeadlineIn(1e9);
  const auto after = CancelToken::Clock::now();
  const auto span = std::chrono::seconds(1000000000);
  EXPECT_GE(token.deadline(), before + span);
  EXPECT_LE(token.deadline(), after + span);
  EXPECT_FALSE(token.expired());
  // <= 0 and NaN clear it; a short one expires.
  for (const double none : {0.0, -1.0, std::nan("")}) {
    token.setDeadlineIn(1e9);
    token.setDeadlineIn(none);
    EXPECT_EQ(token.deadline(), CancelToken::Clock::time_point{}) << none;
    EXPECT_FALSE(token.expired()) << none;
  }
  token.setDeadlineIn(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.expired());
}

TEST(Timer, MonotoneNonNegative) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(t.milliseconds(), t.seconds() * 1e3, 1.0);
}

TEST(Timer, ResetRestarts) {
  WallTimer t;
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// ------------------------------------------------------------- imageio

TEST(ImageIo, PgmRoundTripHeader) {
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_test_img.pgm";
  std::vector<double> values = {0.0, 0.5, 1.0, 0.25, 0.75, 1.5};
  writePgm(path.string(), values, 2, 3);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 3);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<unsigned char> pixels(6);
  in.read(reinterpret_cast<char*>(pixels.data()), 6);
  EXPECT_EQ(pixels[0], 0);
  EXPECT_EQ(pixels[2], 255);
  EXPECT_EQ(pixels[5], 255);  // clamped
  std::filesystem::remove(path);
}

TEST(ImageIo, PgmSizeMismatchThrows) {
  std::vector<double> values(5, 0.0);
  EXPECT_THROW(writePgm("/tmp/should_not_exist.pgm", values, 2, 3),
               InvalidArgument);
}

TEST(ImageIo, PpmWrites) {
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_test_img.ppm";
  std::vector<double> ch = {0.0, 1.0, 0.5, 0.25};
  writePpm(path.string(), ch, ch, ch, 2, 2);
  EXPECT_GT(std::filesystem::file_size(path), 12u);
  std::filesystem::remove(path);
}

TEST(ImageIo, CsvWritesRows) {
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_test.csv";
  {
    CsvWriter csv(path.string());
    csv.writeHeader({"a", "b"});
    csv.writeRow(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ parallel

TEST(Parallel, ComputesAllIndices) {
  std::vector<int> hits(1000, 0);
  parallelFor(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool touched = false;
  parallelFor(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Parallel, ExceptionPropagates) {
  EXPECT_THROW(parallelFor(0, 10,
                           [](std::size_t i) {
                             if (i == 3) throw InvalidArgument("inner");
                           }),
               InvalidArgument);
}

TEST(Parallel, ExceptionFromMidRangeStillCompletesOtherIterations) {
  // A throw from one chunk must propagate exactly once while the pool
  // shuts down cleanly (no hang, no crash); iterations that already ran
  // keep their side effects.
  std::vector<std::atomic<int>> hits(512);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(parallelFor(0, hits.size(),
                           [&](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 200) throw InvalidArgument("mid-range");
                           }),
               InvalidArgument);
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
  EXPECT_EQ(hits[200].load(), 1);
}

TEST(Parallel, RangeSmallerThanWorkerCount) {
  setParallelism(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  parallelFor(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  setParallelism(0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerCountPositive) {
  EXPECT_GE(hardwareParallelism(), 1);
  EXPECT_THROW(setParallelism(-1), InvalidArgument);
}

TEST(Parallel, NestedParallelForComposes) {
  // The executor contract (docs/performance.md): a parallelFor inside a
  // parallelFor body enqueues steal-able subtasks onto the shared pool.
  // Every (outer, inner) pair must execute exactly once, the inner calls
  // must report being nested, and the call must drain without deadlock.
  setParallelism(4);
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::vector<std::atomic<int>> cells(kOuter * kInner);
  for (auto& c : cells) c.store(0);
  std::atomic<int> nestedSeen{0};
  EXPECT_FALSE(inParallelRegion());
  parallelFor(0, kOuter, [&](std::size_t outer) {
    if (inParallelRegion()) nestedSeen.fetch_add(1);
    parallelFor(0, kInner, [&](std::size_t inner) {
      cells[outer * kInner + inner].fetch_add(1);
    });
  });
  setParallelism(0);
  EXPECT_FALSE(inParallelRegion());
  EXPECT_EQ(nestedSeen.load(), static_cast<int>(kOuter));
  for (const auto& c : cells) EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, NestedCorrectAtEveryWorkerCount) {
  // Three-level nesting must drain (no deadlock) and hit every index
  // exactly once whether the pool is serial, tiny, or oversubscribed.
  for (const int workers : {1, 2, 8}) {
    setParallelism(workers);
    constexpr std::size_t kA = 4, kB = 8, kC = 16;
    std::vector<std::atomic<int>> cells(kA * kB * kC);
    for (auto& c : cells) c.store(0);
    parallelFor(0, kA, [&](std::size_t a) {
      parallelFor(0, kB, [&](std::size_t b) {
        parallelFor(0, kC, [&](std::size_t c) {
          cells[(a * kB + b) * kC + c].fetch_add(1);
        });
      });
    });
    for (const auto& c : cells) ASSERT_EQ(c.load(), 1) << workers;
  }
  setParallelism(0);
}

TEST(Parallel, NestedExceptionPropagatesToOuterCaller) {
  setParallelism(4);
  EXPECT_THROW(parallelFor(0, 8,
                           [](std::size_t outer) {
                             parallelFor(0, 32, [outer](std::size_t inner) {
                               if (outer == 3 && inner == 17) {
                                 throw InvalidArgument("nested");
                               }
                             });
                           }),
               InvalidArgument);
  setParallelism(0);
  EXPECT_FALSE(inParallelRegion());
}

TEST(Parallel, ThrowCancelsRemainingChunksPromptly) {
  // The cooperative-abort regression (docs/performance.md): the first
  // exception must cancel chunks that have not started, so a throwing
  // body over a large range finishes long before running every index.
  // Each iteration sleeps, so executing all of them would take ~200x
  // longer than the aborted run has any reason to.
  setParallelism(2);
  constexpr std::size_t kRange = 4000;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      parallelFor(0, kRange,
                  [&](std::size_t i) {
                    if (i == 0) throw InvalidArgument("abort now");
                    executed.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                  }),
      InvalidArgument);
  setParallelism(0);
  // At most the chunks already in flight ran; the rest were skipped.
  EXPECT_LT(executed.load(), kRange / 2);
}

TEST(Parallel, ResizeJoinsWorkersAndRestartsPool) {
  // setParallelism to a different size joins the old workers and the next
  // parallelFor restarts the pool at the new size. Mid-process resizes
  // must keep working.
  setParallelism(3);  // 2 pool threads after first use
  std::atomic<int> sum{0};
  parallelFor(0, 64, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(poolStats().liveThreads, 2);

  setParallelism(5);  // resize: the 2 old workers join
  EXPECT_EQ(poolStats().liveThreads, 0);
  parallelFor(0, 64, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(poolStats().liveThreads, 4);
  EXPECT_EQ(sum.load(), 128);

  shutdownParallelPool();  // explicit shutdown joins every worker too
  EXPECT_EQ(poolStats().liveThreads, 0);
  setParallelism(0);
}

TEST(Parallel, PoolStatsCountTasksAndConfiguredWorkers) {
  setParallelism(4);
  const PoolStats before = poolStats();
  EXPECT_EQ(before.configuredWorkers, 4);
  parallelFor(0, 1000, [](std::size_t) {});
  const PoolStats after = poolStats();
  EXPECT_GT(after.tasksExecuted, before.tasksExecuted);
  setParallelism(0);
  EXPECT_GE(poolStats().configuredWorkers, 1);
}

// ------------------------------------------------------------------ hash

// Golden values from the FNV-1a 64 reference vectors. Every stable digest
// in the system funnels through support/hash.hpp, so these pins guarantee
// the shared implementation matches the three it replaced byte for byte.
TEST(Hash, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, HexIsSixteenLowercaseDigits) {
  EXPECT_EQ(Fnv1a::hashHex(0), "0000000000000000");
  EXPECT_EQ(Fnv1a::hashHex(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(Fnv1a().mix("foobar").hex(), "85944171f73967e8");
}

TEST(Hash, SeededConstructorPreservesLegacyDigests) {
  // serve::maskHashHex persists digests computed from a historical
  // (typo'd) seed; the seeded constructor must reproduce them exactly.
  const unsigned char bytes[] = {1, 2, 3};
  std::uint64_t expected = 1469598103934665603ull;
  for (const unsigned char b : bytes) {
    expected ^= b;
    expected *= 0x100000001b3ull;
  }
  EXPECT_EQ(fnv1a(bytes, sizeof bytes, 1469598103934665603ull), expected);
}

TEST(Hash, IntAndLongLongOfEqualValueHashIdentically) {
  EXPECT_EQ(Fnv1a().mix(42).digest(), Fnv1a().mix(42ll).digest());
  EXPECT_EQ(Fnv1a().mix(-7).digest(), Fnv1a().mix(-7ll).digest());
  // ...and differently from the same value as a double.
  EXPECT_NE(Fnv1a().mix(42).digest(), Fnv1a().mix(42.0).digest());
}

TEST(Hash, IncrementalEqualsOneShot) {
  const std::string s = "incremental-vs-oneshot";
  Fnv1a inc;
  inc.mix(s.substr(0, 5));
  inc.mix(s.substr(5));
  EXPECT_EQ(inc.digest(), fnv1a(s));
}

// ------------------------------------------------------ atomic publication

/// Names of every file in `dir`.
std::set<std::string> filesIn(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    names.insert(de.path().filename().string());
  }
  return names;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(AtomicFile, PublishesTheWholeFileAndNoTemp) {
  const std::string dir = ::testing::TempDir() + "mosaic_atomic_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.bin";
  const std::uint64_t spans =
      telemetry::metrics().histogram("io.publish").count();
  writeFileAtomically(path, [](std::ostream& out) { out << "first\n"; });
  writeFileAtomically(path, [](std::ostream& out) { out << "second\n"; });
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_EQ(filesIn(dir), std::set<std::string>{"out.bin"});
  EXPECT_EQ(telemetry::metrics().histogram("io.publish").count(), spans + 2);
}

TEST(AtomicFile, ThrowingWriterLeavesNoTempAndKeepsTheOldFile) {
  const std::string dir = ::testing::TempDir() + "mosaic_atomic_file_throw";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.bin";
  writeFileAtomically(path, [](std::ostream& out) { out << "good\n"; });
  EXPECT_THROW(writeFileAtomically(path,
                                   [](std::ostream& out) {
                                     out << "half a rec";
                                     throw Error("writer failed partway");
                                   }),
               Error);
  EXPECT_EQ(slurp(path), "good\n");
  EXPECT_EQ(filesIn(dir), std::set<std::string>{"out.bin"});
  // A directory that does not exist fails the open; nothing is left over.
  EXPECT_THROW(writeFileAtomically(dir + "/missing/out.bin",
                                   [](std::ostream& out) { out << "x"; }),
               Error);
  EXPECT_EQ(filesIn(dir), std::set<std::string>{"out.bin"});
}

TEST(AtomicFile, ReaderOfThePredecessorKeepsItsBytesAcrossAReplace) {
  const std::string dir = ::testing::TempDir() + "mosaic_atomic_file_reader";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.bin";
  // Larger than any stream buffer, so the tail is read after the replace.
  std::string predecessor(1 << 20, '\0');
  for (std::size_t i = 0; i < predecessor.size(); ++i) {
    predecessor[i] = static_cast<char>('a' + i % 23);
  }
  writeFileAtomically(path, [&](std::ostream& out) { out << predecessor; });

  std::ifstream reader(path, std::ios::binary);
  std::string head(16, '\0');
  ASSERT_TRUE(reader.read(head.data(), 16));
  writeFileAtomically(path, [](std::ostream& out) { out << "successor\n"; });
  const std::string tail{std::istreambuf_iterator<char>(reader),
                         std::istreambuf_iterator<char>()};
  EXPECT_TRUE(head + tail == predecessor)
      << "read " << head.size() + tail.size() << " of " << predecessor.size()
      << " predecessor bytes";
  EXPECT_EQ(slurp(path), "successor\n");
  EXPECT_EQ(filesIn(dir), std::set<std::string>{"out.bin"});
}

TEST(AtomicFile, DirectoryAtPathThrowsAndIsLeftInPlace) {
  const std::string dir = ::testing::TempDir() + "mosaic_atomic_file_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/out.bin";
  std::filesystem::create_directories(path);
  { std::ofstream(path + "/inside.txt") << "kept\n"; }

  EXPECT_THROW(writeFileAtomically(path,
                                   [](std::ostream& out) { out << "file\n"; }),
               Error);
  // An exchange would have moved the directory to the temp name and put
  // the file at `path`; the rename fallback refuses instead.
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(filesIn(path), std::set<std::string>{"inside.txt"});
  EXPECT_EQ(slurp(path + "/inside.txt"), "kept\n");
  EXPECT_EQ(filesIn(dir), std::set<std::string>{"out.bin"});
}

}  // namespace
}  // namespace mosaic
