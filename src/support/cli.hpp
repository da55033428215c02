#pragma once
/// \file cli.hpp
/// A tiny declarative command-line parser used by the apps, the bench
/// harnesses and the examples. Supports `--name value`, `--name=value`,
/// boolean flags, and generates a usage screen. RuntimeFlags is the option
/// group the two apps share.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mosaic {

/// Parse all of `text` as one int (double), as std::stoi (std::stod)
/// does, except that a character left unread is an error: "7x", "4.5" and
/// "1e3" are not ints, and "0.25s" is not a double. Throws
/// std::invalid_argument when `text` is not one number and
/// std::out_of_range when the number does not fit.
int parseWholeInt(const std::string& text);
double parseWholeDouble(const std::string& text);

/// Declarative option parser.
///
/// Usage:
/// \code
///   CliParser cli("table2", "Reproduce paper Table 2");
///   int pixel = 2;
///   cli.addInt("pixel", &pixel, "pixel size in nm");
///   cli.parse(argc, argv);   // throws InvalidArgument on bad input
/// \endcode
class CliParser {
 public:
  CliParser(std::string programName, std::string description);

  /// Register an integer option with a default taken from *target.
  void addInt(const std::string& name, int* target, const std::string& help);
  /// Register a double option with a default taken from *target.
  void addDouble(const std::string& name, double* target,
                 const std::string& help);
  /// Register a string option with a default taken from *target.
  void addString(const std::string& name, std::string* target,
                 const std::string& help);
  /// Register a boolean flag (presence sets true; `--name=false` clears).
  void addFlag(const std::string& name, bool* target, const std::string& help);

  /// Parse argv. Returns false if `--help` was requested (usage already
  /// printed); on malformed input (unknown option, bad value) prints the
  /// usage screen to stderr and throws InvalidArgument.
  bool parse(int argc, const char* const* argv);

  /// Render the usage/help screen.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    void* target;
    std::string help;
    std::string defaultValue;
  };

  void add(const std::string& name, Kind kind, void* target,
           const std::string& help, std::string defaultValue);
  void assign(const std::string& name, const std::string& value);
  bool parseImpl(int argc, const char* const* argv);

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

/// --log, --threads and --failpoints, the runtime options every program
/// that runs the optimizer shares (mosaic_cli's subcommands, mosaic_serve),
/// and the code that applies them. Programs that run no optimizer take
/// --log only.
struct RuntimeFlags {
  std::string logLevel;
  int threads = 0;
  std::string failpoints;

  explicit RuntimeFlags(std::string defaultLogLevel)
      : logLevel(std::move(defaultLogLevel)) {}

  void addLogOption(CliParser& cli);
  void addOptions(CliParser& cli);

  /// Sets the log level, sizes the process-wide work-stealing executor
  /// (docs/performance.md: one pool shared by tiles, jobs and every
  /// nested pixel/corner loop; --threads 0 keeps the hardware default)
  /// and arms the fail points. Throws InvalidArgument on a negative
  /// --threads.
  void apply() const;
};

}  // namespace mosaic
