// Minimal command-line flag parsing for bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name.
// Positional arguments are collected. A caller that lists the flags it
// reads (CheckKnown) turns a misspelt or retired flag into an error
// instead of a silently ignored default, a numeric value must parse
// whole ("2x" or an out-of-range number is an error, never a truncation),
// and a boolean value must be one of its spellings ("on" is an error,
// never a silent false).
// Values can also be supplied through environment variables (used by the
// bench suite so `DPHIST_TRIALS=50 ./bench_...` restores the paper's full
// protocol without editing commands).

#ifndef DPHIST_COMMON_FLAGS_H_
#define DPHIST_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dphist {

/// Parsed command line: flag key/value pairs plus positional arguments.
class Flags {
 public:
  /// Parses argv. Flags look like --key=value, --key value, or --key.
  static Flags Parse(int argc, const char* const* argv);

  /// True if the flag was supplied (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of the flag, or `fallback` if absent. If the flag is
  /// absent, the environment variable `env` (when non-empty) is consulted
  /// before the fallback.
  std::string GetString(const std::string& name, const std::string& fallback,
                        const std::string& env = "") const;

  /// Integer value of the flag with env-var and fallback handling as above.
  /// A value with trailing characters or outside the int64 range is an
  /// InvalidArgument naming the flag (and the env var it came from).
  Result<std::int64_t> ParseInt(const std::string& name,
                                std::int64_t fallback,
                                const std::string& env = "") const;

  /// Double value, as ParseInt; the value must also be finite.
  Result<double> ParseDouble(const std::string& name, double fallback,
                             const std::string& env = "") const;

  /// ParseInt for bench and example binaries: a malformed value aborts
  /// with ParseInt's message.
  std::int64_t GetInt(const std::string& name, std::int64_t fallback,
                      const std::string& env = "") const;

  /// ParseDouble for bench and example binaries, aborting as GetInt.
  double GetDouble(const std::string& name, double fallback,
                   const std::string& env = "") const;

  /// Boolean value, `fallback` when absent. A bare `--name`, `true`, `1`
  /// or `yes` means true; `false`, `0` or `no` means false. Any other
  /// value is an InvalidArgument naming the flag, as ParseInt's are.
  Result<bool> ParseBool(const std::string& name, bool fallback) const;

  /// InvalidArgument naming the first supplied flag (in name order) that
  /// is not in `known`; Ok when every supplied flag is known.
  Status CheckKnown(std::initializer_list<std::string_view> known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]); empty if argc == 0.
  const std::string& program() const { return program_; }

 private:
  /// The error for a `value` of flag `name` that is not `what`; names
  /// the env var when the value came from there.
  Status Malformed(const std::string& name, const std::string& env,
                   const std::string& value, const char* what) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace dphist

#endif  // DPHIST_COMMON_FLAGS_H_
