#ifndef CASC_COMMON_FLAGS_H_
#define CASC_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace casc {

/// Minimal command-line flag parser for the bench and example binaries.
///
/// Accepts `--name=value`, `--name value`, and bare `--name` for booleans.
/// Typical use:
///
///   FlagParser flags;
///   flags.DefineInt64("workers", 1000, "workers per batch", 0,
///                     FlagParser::kIntMax);
///   flags.DefineDouble("epsilon", 0.05, "TSI stop threshold");
///   flags.ParseOrExit(argc, argv);
///   int64_t m = flags.GetInt64("workers");
class FlagParser {
 public:
  /// Largest value of an int64 flag that the caller stores in an int.
  static constexpr int64_t kIntMax = std::numeric_limits<int>::max();

  /// Registers an integer flag with a default value. A value outside the
  /// inclusive range [min_value, max_value] is a parse error naming the
  /// flag and its range; the default must lie inside the range.
  void DefineInt64(const std::string& name, int64_t default_value,
                   const std::string& help,
                   int64_t min_value = std::numeric_limits<int64_t>::min(),
                   int64_t max_value = std::numeric_limits<int64_t>::max());

  /// Registers a floating-point flag with a default value.
  void DefineDouble(const std::string& name, double default_value,
                    const std::string& help);

  /// Registers a string flag with a default value.
  void DefineString(const std::string& name, const std::string& default_value,
                    const std::string& help);

  /// Registers a boolean flag with a default value.
  void DefineBool(const std::string& name, bool default_value,
                  const std::string& help);

  /// Parses argv. Unknown flags, malformed values and int64 values outside
  /// their flag's range produce an error.
  /// Positional (non `--`) arguments are collected into positional().
  Status Parse(int argc, const char* const* argv);

  /// Parse() for a binary's main(): on error, prints the Status message
  /// and Usage() (named after argv[0]'s basename) to stderr and exits the
  /// process with status 1.
  void ParseOrExit(int argc, const char* const* argv);

  int64_t GetInt64(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Arguments that were not flags, in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders a usage string listing all registered flags.
  std::string Usage(const std::string& program_name) const;

 private:
  enum class Kind { kInt64, kDouble, kString, kBool };

  struct Flag {
    Kind kind;
    std::string help;
    int64_t int_value = 0;
    int64_t int_min = std::numeric_limits<int64_t>::min();
    int64_t int_max = std::numeric_limits<int64_t>::max();
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  Status SetValue(const std::string& name, const std::string& value);
  const Flag& GetFlag(const std::string& name, Kind kind) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace casc

#endif  // CASC_COMMON_FLAGS_H_
