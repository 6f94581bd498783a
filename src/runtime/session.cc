#include "runtime/session.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>

namespace dphist::runtime {
namespace {

/// The prefix of every diagnostic, as workload files have always been
/// reported.
std::string LinePrefix(std::int64_t line) {
  return "query line " + std::to_string(line) + ": ";
}

/// True when `token` is an integer literal (optionally signed) and
/// nothing else — used to tell a bare range line from a command typo.
bool LooksLikeInteger(std::string_view token) {
  std::size_t i = (!token.empty() && (token[0] == '-' || token[0] == '+'))
                      ? 1
                      : 0;
  if (i >= token.size()) return false;
  for (; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
  }
  return true;
}

/// The bytes `std::istream >>` skips in the "C" locale (space and '\t'
/// to '\r'), plus the comma the grammar adds.
constexpr bool IsSeparator(char c) {
  return c == ' ' || c == ',' || (c >= '\t' && c <= '\r');
}

/// Reads one line's fields in place, as `>>` on an istringstream of the
/// line (commas read as spaces) would.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line)
      : pos_(line.data()), end_(line.data() + line.size()) {}

  /// The next run of non-separator bytes; empty at the end of the line.
  std::string_view Token() {
    SkipSeparators();
    const char* first = pos_;
    while (pos_ != end_ && !IsSeparator(*pos_)) ++pos_;
    return std::string_view(first, static_cast<std::size_t>(pos_ - first));
  }

  /// The next integer: one optional sign, then every digit that follows.
  /// False when there is no digit or the value overflows int64 (the
  /// caller then fails the line).
  bool Integer(std::int64_t* value) {
    SkipSeparators();
    const char* first = pos_;
    if (first != end_ && *first == '+') {
      ++first;
      // std::from_chars takes a '-' of its own; a second sign is no
      // number.
      if (first != end_ && *first == '-') return false;
    }
    const std::from_chars_result parsed = std::from_chars(first, end_, *value);
    if (parsed.ec != std::errc()) return false;
    pos_ = parsed.ptr;
    return true;
  }

 private:
  void SkipSeparators() {
    while (pos_ != end_ && IsSeparator(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

/// Reads one "lo hi" pair, checks it against [0, domain_size) and
/// appends it to `ranges`.
Status AppendRange(FieldCursor& fields, std::int64_t domain_size,
                   std::int64_t line_number, std::vector<Interval>* ranges) {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (!fields.Integer(&lo) || !fields.Integer(&hi)) {
    return Status::InvalidArgument(LinePrefix(line_number) +
                                   "expected \"lo hi\"");
  }
  if (lo > hi || lo < 0 || hi >= domain_size) {
    return Status::OutOfRange(LinePrefix(line_number) +
                              "range out of bounds");
  }
  ranges->emplace_back(lo, hi);
  return Status::Ok();
}

/// Appends `value` in decimal, as an ostream prints an integer.
template <typename Int>
void AppendInteger(Int value, std::string* out) {
  char buffer[24];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

/// Appends `value` as printf "%.<precision>g" does in the "C" locale,
/// which is what an ostream in defaultfloat notation prints.
void AppendGeneral(double value, int precision, std::string* out) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, precision);
  out->append(buffer, result.ptr);
}

}  // namespace

Result<bool> ParseSessionLine(std::string_view line,
                              std::int64_t domain_size,
                              std::int64_t line_number,
                              SessionCommand* out) {
  const std::size_t first = line.find_first_not_of(" \t\r,");
  if (first == std::string_view::npos) return false;  // blank
  if (line[first] == '#') return false;               // comment

  FieldCursor fields(line);
  const std::string_view head = fields.Token();
  if (head == "qb") {
    std::int64_t k = 0;
    if (!fields.Integer(&k) || k < 1) {
      return Status::InvalidArgument(LinePrefix(line_number) +
                                     "qb expects a positive batch size");
    }
    if (k > kMaxSessionBatch) {
      return Status::InvalidArgument(LinePrefix(line_number) +
                                     "qb batch size exceeds " +
                                     std::to_string(kMaxSessionBatch));
    }
    out->verb = SessionVerb::kBatch;
    out->ranges.clear();
    for (std::int64_t i = 0; i < k; ++i) {
      Status s = AppendRange(fields, domain_size, line_number, &out->ranges);
      if (!s.ok()) return s;
    }
    return true;
  }
  if (head == "q" || LooksLikeInteger(head)) {
    // A bare workload-file line ("lo hi") is read again from its start,
    // so its diagnostics match the explicit-verb path.
    if (head != "q") fields = FieldCursor(line);
    out->verb = SessionVerb::kQuery;
    out->ranges.clear();
    Status s = AppendRange(fields, domain_size, line_number, &out->ranges);
    if (!s.ok()) return s;
    return true;
  }
  if (head == "stats" || head == "replan" || head == "quit") {
    out->verb = head == "stats"    ? SessionVerb::kStats
                : head == "replan" ? SessionVerb::kReplan
                                   : SessionVerb::kQuit;
    out->ranges.clear();
    return true;
  }
  // Matches the historical non-numeric-token diagnostic closely enough
  // that scripts looking for "line N" keep working.
  return Status::InvalidArgument("query line " + std::to_string(line_number) +
                                 ": unknown command \"" + std::string(head) +
                                 "\"");
}

Result<SessionScript> ReadSessionScript(std::istream& in,
                                        std::int64_t domain_size) {
  SessionScript script;
  SessionCommand command;  // reused: warm lines parse without allocating
  std::string line;
  std::int64_t line_number = 0;
  while (std::getline(in, line)) {
    Result<bool> parsed =
        ParseSessionLine(line, domain_size, ++line_number, &command);
    if (!parsed.ok()) return parsed.status();
    if (!parsed.value()) continue;  // blank or comment
    if (command.verb == SessionVerb::kQuit) break;
    if (command.verb != SessionVerb::kQuery || script.steps.empty() ||
        script.steps.back().verb != SessionVerb::kQuery) {
      script.steps.push_back({command.verb, script.ranges.size(), 0});
    }
    script.ranges.insert(script.ranges.end(), command.ranges.begin(),
                         command.ranges.end());
    script.steps.back().count += command.ranges.size();
  }
  return script;
}

void AppendAnswerLine(double value, std::string* out) {
  // Section 5.2 rounding makes every served count an integer, and
  // integer to_chars is several times cheaper than the general
  // floating-point path. Below 1e15 in magnitude "%.15g" prints an
  // integral value as exactly its digits (no exponent, no point); -0.0
  // keeps the general path, which prints its sign. NaN fails the range
  // test, so the cast only ever sees values int64 holds.
  if (std::fabs(value) < 1e15 &&
      static_cast<double>(static_cast<std::int64_t>(value)) == value &&
      (value != 0.0 || !std::signbit(value))) {
    AppendInteger(static_cast<std::int64_t>(value), out);
  } else {
    AppendGeneral(value, 15, out);
  }
  out->push_back('\n');
}

void SessionWriter::WriteThrough() {
  if (stream_ == nullptr) return;
  stream_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void SessionWriter::Answers(const double* values, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    AppendAnswerLine(values[i], text_);
  }
  WriteThrough();
}

void SessionWriter::BatchReceipt(std::size_t count, std::uint64_t epoch) {
  text_->append("# batch n=");
  AppendInteger(count, text_);
  text_->append(" epoch=");
  AppendInteger(epoch, text_);
  text_->push_back('\n');
  WriteThrough();
}

void SessionWriter::PlanNote(std::string_view strategy, std::int64_t shards,
                             std::uint64_t epoch, std::string_view reason,
                             double predicted_mean_var) {
  text_->append("# planned strategy=");
  text_->append(strategy);
  text_->append(" shards=");
  AppendInteger(shards, text_);
  text_->append(" epoch=");
  AppendInteger(epoch, text_);
  text_->append(" reason=");
  text_->append(reason);
  text_->append(" predicted_mean_var=");
  AppendGeneral(predicted_mean_var, 6, text_);
  text_->push_back('\n');
  WriteThrough();
}

void SessionWriter::ServedReceipt(std::uint64_t queries, std::uint64_t epoch) {
  text_->append("# served ");
  AppendInteger(queries, text_);
  text_->append(" queries from epoch ");
  AppendInteger(epoch, text_);
  text_->push_back('\n');
  WriteThrough();
}

void SessionWriter::Comment(const std::string& text) {
  text_->append("# ");
  text_->append(text);
  text_->push_back('\n');
  WriteThrough();
}

void SessionWriter::Error(std::string_view message) {
  text_->append("error: ");
  text_->append(message);
  text_->push_back('\n');
  WriteThrough();
}

void SessionWriter::Flush() {
  if (stream_ != nullptr) stream_->flush();
}

}  // namespace dphist::runtime
