#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace dphist {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Status Flags::Malformed(const std::string& name, const std::string& env,
                        const std::string& value, const char* what) const {
  auto it = values_.find(name);
  const bool from_flag = it != values_.end() && !it->second.empty();
  return Status::InvalidArgument(
      "--" + name + (from_flag ? "" : " (from " + env + ")") + ": \"" +
      value + "\" is not " + what);
}

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  if (argc > 0) flags.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form: consume the next token unless it is also a flag.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      flags.values_[body] = argv[i + 1];
      ++i;
    } else {
      flags.values_[body] = "";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback,
                             const std::string& env) const {
  auto it = values_.find(name);
  if (it != values_.end() && !it->second.empty()) return it->second;
  if (!env.empty()) {
    const char* v = std::getenv(env.c_str());
    if (v != nullptr && v[0] != '\0') return v;
  }
  return fallback;
}

Result<std::int64_t> Flags::ParseInt(const std::string& name,
                                     std::int64_t fallback,
                                     const std::string& env) const {
  const std::string s = GetString(name, "", env);
  if (s.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    return Malformed(name, env, s, "an integer in the int64 range");
  }
  return static_cast<std::int64_t>(value);
}

Result<double> Flags::ParseDouble(const std::string& name, double fallback,
                                  const std::string& env) const {
  const std::string s = GetString(name, "", env);
  if (s.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return Malformed(name, env, s, "a finite number");
  }
  return value;
}

std::int64_t Flags::GetInt(const std::string& name, std::int64_t fallback,
                           const std::string& env) const {
  Result<std::int64_t> value = ParseInt(name, fallback, env);
  DPHIST_CHECK_MSG(value.ok(), value.status().message().c_str());
  return value.value();
}

double Flags::GetDouble(const std::string& name, double fallback,
                        const std::string& env) const {
  Result<double> value = ParseDouble(name, fallback, env);
  DPHIST_CHECK_MSG(value.ok(), value.status().message().c_str());
  return value.value();
}

Result<bool> Flags::ParseBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return Malformed(name, "", v, "a boolean (true/false, 1/0, yes/no)");
}

Status Flags::CheckKnown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

}  // namespace dphist
