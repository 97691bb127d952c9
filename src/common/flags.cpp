#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/strings.h"

namespace casc {
namespace {

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "int64";
    case 1:
      return "double";
    case 2:
      return "string";
    case 3:
      return "bool";
  }
  return "?";
}

std::string RangeText(int64_t lo, int64_t hi) {
  std::string out = "[";
  out += std::to_string(lo);
  out += ", ";
  out += std::to_string(hi);
  out += "]";
  return out;
}

/// An open end of a double range (the default lowest/max) reads as -inf
/// or +inf.
std::string RangeText(double lo, double hi) {
  char buffer[80];
  const bool open_lo = lo == std::numeric_limits<double>::lowest();
  const bool open_hi = hi == std::numeric_limits<double>::max();
  std::snprintf(buffer, sizeof(buffer), "%s%g, %g%s", open_lo ? "(" : "[",
                open_lo ? -HUGE_VAL : lo, open_hi ? HUGE_VAL : hi,
                open_hi ? ")" : "]");
  return buffer;
}

}  // namespace

void FlagParser::DefineInt64(const std::string& name, int64_t default_value,
                             const std::string& help, int64_t min_value,
                             int64_t max_value) {
  CASC_CHECK(min_value <= default_value && default_value <= max_value)
      << "flag --" << name << ": default " << default_value
      << " outside [" << min_value << ", " << max_value << "]";
  Flag flag;
  flag.kind = Kind::kInt64;
  flag.help = help;
  flag.int_value = default_value;
  flag.int_min = min_value;
  flag.int_max = max_value;
  CASC_CHECK(flags_.emplace(name, flag).second)
      << "duplicate flag --" << name;
}

void FlagParser::DefineDouble(const std::string& name, double default_value,
                              const std::string& help, double min_value,
                              double max_value) {
  CASC_CHECK(min_value <= default_value && default_value <= max_value)
      << "flag --" << name << ": default " << default_value << " outside "
      << RangeText(min_value, max_value);
  Flag flag;
  flag.kind = Kind::kDouble;
  flag.help = help;
  flag.double_value = default_value;
  flag.double_min = min_value;
  flag.double_max = max_value;
  CASC_CHECK(flags_.emplace(name, flag).second)
      << "duplicate flag --" << name;
}

void FlagParser::DefineString(const std::string& name,
                              const std::string& default_value,
                              const std::string& help) {
  Flag flag;
  flag.kind = Kind::kString;
  flag.help = help;
  flag.string_value = default_value;
  CASC_CHECK(flags_.emplace(name, flag).second)
      << "duplicate flag --" << name;
}

void FlagParser::DefineBool(const std::string& name, bool default_value,
                            const std::string& help) {
  Flag flag;
  flag.kind = Kind::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  CASC_CHECK(flags_.emplace(name, flag).second)
      << "duplicate flag --" << name;
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      auto it = flags_.find(name);
      if (it == flags_.end()) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      if (it->second.kind == Kind::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " needs a value");
      }
    }
    Status status = SetValue(name, value);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

void FlagParser::ParseOrExit(int argc, const char* const* argv) {
  const Status status = Parse(argc, argv);
  if (status.ok()) return;
  std::string program = argc > 0 ? argv[0] : "program";
  const size_t slash = program.find_last_of('/');
  if (slash != std::string::npos) program = program.substr(slash + 1);
  std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
               Usage(program).c_str());
  std::exit(1);
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.kind) {
    case Kind::kInt64: {
      int64_t parsed = 0;
      if (!ParseInt64(value, &parsed)) {
        return Status::InvalidArgument("flag --" + name +
                                       ": bad int64 value '" + value + "'");
      }
      if (parsed < flag.int_min || parsed > flag.int_max) {
        return Status::InvalidArgument(
            "flag --" + name + ": " + value + " is outside " +
            RangeText(flag.int_min, flag.int_max));
      }
      flag.int_value = parsed;
      break;
    }
    case Kind::kDouble: {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        return Status::InvalidArgument("flag --" + name +
                                       ": bad double value '" + value + "'");
      }
      if (!std::isfinite(parsed)) {
        return Status::InvalidArgument("flag --" + name + ": " + value +
                                       " is not a finite number");
      }
      if (parsed < flag.double_min || parsed > flag.double_max) {
        return Status::InvalidArgument(
            "flag --" + name + ": " + value + " is outside " +
            RangeText(flag.double_min, flag.double_max));
      }
      flag.double_value = parsed;
      break;
    }
    case Kind::kString:
      flag.string_value = value;
      break;
    case Kind::kBool:
      if (value == "true" || value == "1") {
        flag.bool_value = true;
      } else if (value == "false" || value == "0") {
        flag.bool_value = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       ": bad bool value '" + value + "'");
      }
      break;
  }
  return Status::Ok();
}

const FlagParser::Flag& FlagParser::GetFlag(const std::string& name,
                                            Kind kind) const {
  auto it = flags_.find(name);
  CASC_CHECK(it != flags_.end()) << "undefined flag --" << name;
  CASC_CHECK(it->second.kind == kind)
      << "flag --" << name << " is not of type "
      << KindName(static_cast<int>(kind));
  return it->second;
}

int64_t FlagParser::GetInt64(const std::string& name) const {
  return GetFlag(name, Kind::kInt64).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return GetFlag(name, Kind::kDouble).double_value;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  return GetFlag(name, Kind::kString).string_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return GetFlag(name, Kind::kBool).bool_value;
}

std::string FlagParser::Usage(const std::string& program_name) const {
  std::string out = "usage: " + program_name + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + " (" + KindName(static_cast<int>(flag.kind)) +
           "): " + flag.help + "\n";
  }
  return out;
}

}  // namespace casc
