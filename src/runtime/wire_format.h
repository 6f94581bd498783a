// The pipelined binary frame protocol spoken on the serving socket.
//
// The socket always opens in text mode: the server sends its "# serving
// ..." banner (preceded, when auth is on, by the auth exchange) and then
// waits. A client that wants the binary protocol sends the single magic
// byte kMagic (0xBF — never the first byte of a valid text command) as
// its first post-banner byte; the server answers with a HELLO frame and
// the connection speaks frames from then on. Any other first byte keeps
// the connection in the line-text protocol, byte-for-byte unchanged —
// REPLs and bash /dev/tcp scripts never know frames exist.
//
// Every frame is
//
//   type : 1 byte               (FrameType)
//   len  : unsigned LEB128      (payload length in bytes)
//   payload : len bytes
//
// Varints are unsigned LEB128 (7 bits per byte, low groups first, high
// bit = continuation). Floating-point answers are IEEE-754 binary64,
// little-endian. Strings are a varint byte length followed by the raw
// bytes (no terminator).
//
// Client -> server
//   QUERY  0x01  id v, expect_epoch v, count v, then count (lo v, hi v)
//                pairs. `id` is echoed in the reply so a pipelining
//                client can match answers to requests. `expect_epoch`
//                != 0 demands the batch be answered under exactly that
//                epoch: a mismatch (a swap landed) returns ERROR
//                (kEpochMismatch) instead of silently answering under a
//                release the client did not expect. 0 = any epoch; the
//                ANSWERS receipt carries whichever epoch served it.
//   STATS  0x02  id v — asks for the `stats` line; reply STATS_TEXT.
//   REPLAN 0x03  id v — manual replan; reply PLAN / NOTE / ERROR.
//   GOODBYE 0x04 empty — ends the session; the server flushes a BYE
//                frame (after draining any in-flight replan) and closes.
//
// Server -> client
//   HELLO  0x81  version v, domain_size v, epoch v — negotiation ack.
//   ANSWERS 0x82 id v, epoch v, count v, count f64-LE values — the
//                whole batch answered under the single `epoch` (the
//                binary form of the "# batch n=K epoch=E" receipt).
//   PLAN   0x83  epoch v, strategy s, shards v, reason s,
//                predicted_mean_var f64 — a republish announcement
//                ("# planned ..."), pushed as soon as the replan lands,
//                not only between requests.
//   STATS_TEXT 0x84  id v, text s — the stats line body.
//   ERROR  0x85  id v, code v, message s — request-scoped failure; the
//                session keeps serving (id 0 = not tied to a request).
//   BYE    0x86  queries v, epoch v — final receipt ("# served N
//                queries from epoch E"); the server closes after it.
//   NOTE   0x87  text s — a push comment (drift check kept the release,
//                a lifecycle replan failed) a text session would see as
//                a "# ..." line.
//
// Pipelining needs no protocol support: a client may write any number
// of QUERY frames before reading; the server executes frames in arrival
// order per connection and answers carry ids. Push frames (PLAN / NOTE)
// may appear between any two replies.

#ifndef DPHIST_RUNTIME_WIRE_FORMAT_H_
#define DPHIST_RUNTIME_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "domain/interval.h"

namespace dphist::runtime::wire {

/// First post-banner byte that switches a connection to frames. 0xBF is
/// not printable ASCII, so no text command can start with it.
inline constexpr unsigned char kMagic = 0xBF;

inline constexpr std::uint64_t kProtocolVersion = 1;

/// Hard ceiling on one frame's payload. Large enough for a
/// kMaxSessionBatch query frame (~20 bytes/range worst case) and its
/// answers; anything bigger is a malformed or hostile length prefix.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 25;

enum class FrameType : unsigned char {
  // client -> server
  kQuery = 0x01,
  kStats = 0x02,
  kReplan = 0x03,
  kGoodbye = 0x04,
  // server -> client
  kHello = 0x81,
  kAnswers = 0x82,
  kPlan = 0x83,
  kStatsText = 0x84,
  kError = 0x85,
  kBye = 0x86,
  kNote = 0x87,
};

/// ERROR frame codes (a stable wire enum, deliberately narrower than
/// StatusCode).
enum class WireError : std::uint64_t {
  kBadRequest = 1,     // malformed frame payload / out-of-range ranges
  kEpochMismatch = 2,  // expect_epoch demanded an epoch no longer current
  kFailed = 3,         // the command executed and failed (e.g. replan)
};

// ---- primitive encoding ------------------------------------------------

/// Appends `value` as unsigned LEB128.
void PutVarint(std::string* out, std::uint64_t value);

/// Appends a varint byte length followed by the raw bytes.
void PutString(std::string* out, std::string_view s);

/// Appends IEEE-754 binary64, little-endian.
void PutF64(std::string* out, double value);

/// Cursor over one frame's payload bytes. Get* return false on
/// truncation/overflow and leave the cursor unusable (callers bail).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  bool GetVarint(std::uint64_t* value);
  bool GetString(std::string* value);
  bool GetF64(double* value);
  /// Everything has been consumed — a well-formed payload ends exactly
  /// where its fields do.
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- frame encoding ----------------------------------------------------

/// Appends one complete frame (type + varint length + payload bytes).
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

void EncodeQuery(std::uint64_t id, std::uint64_t expect_epoch,
                 const Interval* ranges, std::size_t count, std::string* out);
void EncodeStatsRequest(std::uint64_t id, std::string* out);
void EncodeReplanRequest(std::uint64_t id, std::string* out);
void EncodeGoodbye(std::string* out);

void EncodeHello(std::uint64_t domain_size, std::uint64_t epoch,
                 std::string* out);
void EncodeAnswers(std::uint64_t id, std::uint64_t epoch,
                   const double* values, std::size_t count, std::string* out);
void EncodePlan(std::uint64_t epoch, std::string_view strategy,
                std::uint64_t shards, std::string_view reason,
                double predicted_mean_var, std::string* out);
void EncodeStatsText(std::uint64_t id, std::string_view text,
                     std::string* out);
void EncodeError(std::uint64_t id, WireError code, std::string_view message,
                 std::string* out);
void EncodeBye(std::uint64_t queries, std::uint64_t epoch, std::string* out);
void EncodeNote(std::string_view text, std::string* out);

// ---- frame decoding ----------------------------------------------------

/// One decoded frame header; `payload` points into the caller's buffer
/// and is valid only until that buffer changes.
struct Frame {
  FrameType type = FrameType::kGoodbye;
  std::string_view payload;
};

/// Tries to decode one frame from the front of `buffer`. Returns the
/// bytes consumed (header + payload) with `*frame` filled, 0 when the
/// buffer holds only a frame prefix (read more bytes and retry), or an
/// error Status for an unknown type / oversized or malformed length —
/// the connection is broken then and must close.
Result<std::size_t> DecodeFrame(std::string_view buffer, Frame* frame);

// ---- typed payload parsing ---------------------------------------------

struct QueryFrame {
  std::uint64_t id = 0;
  std::uint64_t expect_epoch = 0;  // 0 = any
  std::vector<Interval> ranges;
};
/// Validates count against kMaxSessionBatch and against the payload
/// left to hold it (each range takes at least 2 bytes, so a payload that
/// claims more ranges than it can hold fails before anything is
/// reserved), and every range against [0, domain_size). Refills `out`
/// in place, so a caller that reuses one frame allocates nothing once
/// its range vector has grown.
Status ParseQuery(std::string_view payload, std::int64_t domain_size,
                  QueryFrame* out);

struct HelloFrame {
  std::uint64_t version = 0;
  std::uint64_t domain_size = 0;
  std::uint64_t epoch = 0;
};
Status ParseHello(std::string_view payload, HelloFrame* out);

struct AnswersFrame {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  std::vector<double> values;
};
Status ParseAnswers(std::string_view payload, AnswersFrame* out);

struct PlanFrame {
  std::uint64_t epoch = 0;
  std::string strategy;
  std::uint64_t shards = 0;
  std::string reason;
  double predicted_mean_var = 0.0;
};
Status ParsePlan(std::string_view payload, PlanFrame* out);

struct StatsTextFrame {
  std::uint64_t id = 0;
  std::string text;
};
Status ParseStatsText(std::string_view payload, StatsTextFrame* out);

struct ErrorFrame {
  std::uint64_t id = 0;
  std::uint64_t code = 0;
  std::string message;
};
Status ParseError(std::string_view payload, ErrorFrame* out);

struct ByeFrame {
  std::uint64_t queries = 0;
  std::uint64_t epoch = 0;
};
Status ParseBye(std::string_view payload, ByeFrame* out);

/// STATS / REPLAN requests share one shape: a lone id.
Status ParseIdOnly(std::string_view payload, std::uint64_t* id);

/// NOTE payload: a lone string.
Status ParseNote(std::string_view payload, std::string* text);

}  // namespace dphist::runtime::wire

#endif  // DPHIST_RUNTIME_WIRE_FORMAT_H_
