#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace dphist {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

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

std::int64_t Flags::GetInt(const std::string& name, std::int64_t fallback,
                           const std::string& env) const {
  std::string s = GetString(name, "", env);
  if (s.empty()) return fallback;
  return std::strtoll(s.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback,
                        const std::string& env) const {
  std::string s = GetString(name, "", env);
  if (s.empty()) return fallback;
  return std::strtod(s.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  return false;
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
