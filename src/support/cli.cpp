#include "support/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "support/error.hpp"

namespace mosaic {

int parseWholeInt(const std::string& text) {
  std::size_t used = 0;
  const int value = std::stoi(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  return value;
}

double parseWholeDouble(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument(text);
  return value;
}

CliParser::CliParser(std::string programName, std::string description)
    : program_(std::move(programName)), description_(std::move(description)) {}

void CliParser::add(const std::string& name, Kind kind, void* target,
                    const std::string& help, std::string defaultValue) {
  MOSAIC_CHECK(!name.empty(), "option name must not be empty");
  MOSAIC_CHECK(options_.find(name) == options_.end(),
               "duplicate option --" << name);
  options_[name] = Option{kind, target, help, std::move(defaultValue)};
  order_.push_back(name);
}

void CliParser::addInt(const std::string& name, int* target,
                       const std::string& help) {
  add(name, Kind::kInt, target, help, std::to_string(*target));
}

void CliParser::addDouble(const std::string& name, double* target,
                          const std::string& help) {
  std::ostringstream os;
  os << *target;
  add(name, Kind::kDouble, target, help, os.str());
}

void CliParser::addString(const std::string& name, std::string* target,
                          const std::string& help) {
  add(name, Kind::kString, target, help, *target);
}

void CliParser::addFlag(const std::string& name, bool* target,
                        const std::string& help) {
  add(name, Kind::kFlag, target, help, *target ? "true" : "false");
}

void CliParser::assign(const std::string& name, const std::string& value) {
  auto it = options_.find(name);
  MOSAIC_CHECK(it != options_.end(), "unknown option --" << name);
  Option& opt = it->second;
  try {
    switch (opt.kind) {
      case Kind::kInt:
        *static_cast<int*>(opt.target) = parseWholeInt(value);
        break;
      case Kind::kDouble:
        *static_cast<double*>(opt.target) = parseWholeDouble(value);
        break;
      case Kind::kString:
        *static_cast<std::string*>(opt.target) = value;
        break;
      case Kind::kFlag:
        if (value == "true" || value == "1" || value == "yes") {
          *static_cast<bool*>(opt.target) = true;
        } else if (value == "false" || value == "0" || value == "no") {
          *static_cast<bool*>(opt.target) = false;
        } else {
          throw InvalidArgument("boolean flag --" + name +
                                " expects true/false, got: " + value);
        }
        break;
    }
  } catch (const std::invalid_argument&) {
    throw InvalidArgument("bad value for --" + name + ": " + value);
  } catch (const std::out_of_range&) {
    throw InvalidArgument("value out of range for --" + name + ": " + value);
  }
}

bool CliParser::parse(int argc, const char* const* argv) {
  try {
    return parseImpl(argc, argv);
  } catch (const InvalidArgument& e) {
    // Malformed invocations get the usage screen on stderr so the shell
    // user sees what was expected; the exception still propagates and the
    // apps' main() turns it into a non-zero exit.
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), e.what(),
                 usage().c_str());
    throw;
  }
}

bool CliParser::parseImpl(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    MOSAIC_CHECK(arg.rfind("--", 0) == 0, "expected --option, got: " << arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      assign(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = options_.find(arg);
    MOSAIC_CHECK(it != options_.end(), "unknown option --" << arg);
    if (it->second.kind == Kind::kFlag) {
      *static_cast<bool*>(it->second.target) = true;
      continue;
    }
    MOSAIC_CHECK(i + 1 < argc, "missing value for --" << arg);
    assign(arg, argv[++i]);
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " -- " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::kInt:
        os << " <int>";
        break;
      case Kind::kDouble:
        os << " <float>";
        break;
      case Kind::kString:
        os << " <string>";
        break;
      case Kind::kFlag:
        break;
    }
    os << "  " << opt.help << " (default: " << opt.defaultValue << ")\n";
  }
  return os.str();
}

}  // namespace mosaic
