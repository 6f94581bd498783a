#include "runtime/wire_format.h"

#include <bit>
#include <cstring>

#include "runtime/session.h"

namespace dphist::runtime::wire {
namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame: ") + what);
}

/// Bytes PutVarint writes for `value`.
std::uint64_t VarintSize(std::uint64_t value) {
  std::uint64_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

}  // namespace

void PutVarint(std::string* out, std::uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

void PutF64(std::string* out, double value) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(bits & 0xFF);
    bits >>= 8;
  }
  out->append(bytes, 8);
}

bool PayloadReader::GetVarint(std::uint64_t* value) {
  std::uint64_t result = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const auto byte = static_cast<unsigned char>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7E) != 0) return false;  // > 64 bits
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
    if (shift > 63) return false;
  }
  return false;  // truncated
}

bool PayloadReader::GetString(std::string* value) {
  std::uint64_t length = 0;
  if (!GetVarint(&length)) return false;
  if (length > data_.size() - pos_) return false;
  value->assign(data_.data() + pos_, static_cast<std::size_t>(length));
  pos_ += static_cast<std::size_t>(length);
  return true;
}

bool PayloadReader::GetF64(double* value) {
  if (data_.size() - pos_ < 8) return false;
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) |
           static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]);
  }
  pos_ += 8;
  *value = std::bit_cast<double>(bits);
  return true;
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  out->push_back(static_cast<char>(type));
  PutVarint(out, payload.size());
  out->append(payload.data(), payload.size());
}

void EncodeQuery(std::uint64_t id, std::uint64_t expect_epoch,
                 const Interval* ranges, std::size_t count,
                 std::string* out) {
  std::string payload;
  PutVarint(&payload, id);
  PutVarint(&payload, expect_epoch);
  PutVarint(&payload, count);
  for (std::size_t i = 0; i < count; ++i) {
    PutVarint(&payload, static_cast<std::uint64_t>(ranges[i].lo()));
    PutVarint(&payload, static_cast<std::uint64_t>(ranges[i].hi()));
  }
  AppendFrame(FrameType::kQuery, payload, out);
}

void EncodeStatsRequest(std::uint64_t id, std::string* out) {
  std::string payload;
  PutVarint(&payload, id);
  AppendFrame(FrameType::kStats, payload, out);
}

void EncodeReplanRequest(std::uint64_t id, std::string* out) {
  std::string payload;
  PutVarint(&payload, id);
  AppendFrame(FrameType::kReplan, payload, out);
}

void EncodeGoodbye(std::string* out) {
  AppendFrame(FrameType::kGoodbye, {}, out);
}

void EncodeHello(std::uint64_t domain_size, std::uint64_t epoch,
                 std::string* out) {
  std::string payload;
  PutVarint(&payload, kProtocolVersion);
  PutVarint(&payload, domain_size);
  PutVarint(&payload, epoch);
  AppendFrame(FrameType::kHello, payload, out);
}

void EncodeAnswers(std::uint64_t id, std::uint64_t epoch,
                   const double* values, std::size_t count,
                   std::string* out) {
  // Written straight into `out`: the payload length is known up front.
  const std::uint64_t payload_size = VarintSize(id) + VarintSize(epoch) +
                                     VarintSize(count) + 8 * count;
  out->push_back(static_cast<char>(FrameType::kAnswers));
  PutVarint(out, payload_size);
  PutVarint(out, id);
  PutVarint(out, epoch);
  PutVarint(out, count);
  for (std::size_t i = 0; i < count; ++i) PutF64(out, values[i]);
}

void EncodePlan(std::uint64_t epoch, std::string_view strategy,
                std::uint64_t shards, std::string_view reason,
                double predicted_mean_var, std::string* out) {
  std::string payload;
  PutVarint(&payload, epoch);
  PutString(&payload, strategy);
  PutVarint(&payload, shards);
  PutString(&payload, reason);
  PutF64(&payload, predicted_mean_var);
  AppendFrame(FrameType::kPlan, payload, out);
}

void EncodeStatsText(std::uint64_t id, std::string_view text,
                     std::string* out) {
  std::string payload;
  PutVarint(&payload, id);
  PutString(&payload, text);
  AppendFrame(FrameType::kStatsText, payload, out);
}

void EncodeError(std::uint64_t id, WireError code, std::string_view message,
                 std::string* out) {
  std::string payload;
  PutVarint(&payload, id);
  PutVarint(&payload, static_cast<std::uint64_t>(code));
  PutString(&payload, message);
  AppendFrame(FrameType::kError, payload, out);
}

void EncodeBye(std::uint64_t queries, std::uint64_t epoch, std::string* out) {
  std::string payload;
  PutVarint(&payload, queries);
  PutVarint(&payload, epoch);
  AppendFrame(FrameType::kBye, payload, out);
}

void EncodeNote(std::string_view text, std::string* out) {
  std::string payload;
  PutString(&payload, text);
  AppendFrame(FrameType::kNote, payload, out);
}

Result<std::size_t> DecodeFrame(std::string_view buffer, Frame* frame) {
  if (buffer.empty()) return std::size_t{0};
  const auto type_byte = static_cast<unsigned char>(buffer[0]);
  switch (static_cast<FrameType>(type_byte)) {
    case FrameType::kQuery:
    case FrameType::kStats:
    case FrameType::kReplan:
    case FrameType::kGoodbye:
    case FrameType::kHello:
    case FrameType::kAnswers:
    case FrameType::kPlan:
    case FrameType::kStatsText:
    case FrameType::kError:
    case FrameType::kBye:
    case FrameType::kNote:
      break;
    default:
      return Status::InvalidArgument("unknown frame type " +
                                     std::to_string(type_byte));
  }
  // Decode the length varint by hand so a partial varint reads as "need
  // more bytes", not an error.
  std::uint64_t length = 0;
  int shift = 0;
  std::size_t pos = 1;
  while (true) {
    if (pos >= buffer.size()) return std::size_t{0};
    const auto byte = static_cast<unsigned char>(buffer[pos++]);
    length |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 35) {
      // 5 continuation groups already exceed kMaxFramePayload — reject
      // before a hostile prefix makes us buffer forever.
      return Status::InvalidArgument("frame length varint too long");
    }
  }
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(length) +
                                   " bytes exceeds the limit");
  }
  if (buffer.size() - pos < length) return std::size_t{0};
  frame->type = static_cast<FrameType>(type_byte);
  frame->payload = buffer.substr(pos, static_cast<std::size_t>(length));
  return pos + static_cast<std::size_t>(length);
}

Status ParseQuery(std::string_view payload, std::int64_t domain_size,
                  QueryFrame* out) {
  PayloadReader reader(payload);
  std::uint64_t count = 0;
  out->id = 0;
  out->expect_epoch = 0;
  if (!reader.GetVarint(&out->id) || !reader.GetVarint(&out->expect_epoch) ||
      !reader.GetVarint(&count)) {
    return Malformed("truncated QUERY header");
  }
  if (count > static_cast<std::uint64_t>(kMaxSessionBatch)) {
    return Status::InvalidArgument(
        "QUERY batch of " + std::to_string(count) + " ranges exceeds " +
        std::to_string(kMaxSessionBatch));
  }
  // Two varints of at least one byte each per range: a larger count
  // could only end truncated, so fail before reserving for it.
  if (count > reader.remaining() / 2) {
    return Malformed("truncated QUERY range");
  }
  out->ranges.clear();
  out->ranges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (!reader.GetVarint(&lo) || !reader.GetVarint(&hi)) {
      return Malformed("truncated QUERY range");
    }
    if (lo > hi || hi >= static_cast<std::uint64_t>(domain_size)) {
      return Status::OutOfRange("QUERY range [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "] out of bounds");
    }
    out->ranges.emplace_back(static_cast<std::int64_t>(lo),
                             static_cast<std::int64_t>(hi));
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes after QUERY ranges");
  return Status::Ok();
}

Status ParseHello(std::string_view payload, HelloFrame* out) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(&out->version) ||
      !reader.GetVarint(&out->domain_size) || !reader.GetVarint(&out->epoch) ||
      !reader.AtEnd()) {
    return Malformed("HELLO");
  }
  return Status::Ok();
}

Status ParseAnswers(std::string_view payload, AnswersFrame* out) {
  PayloadReader reader(payload);
  std::uint64_t count = 0;
  if (!reader.GetVarint(&out->id) || !reader.GetVarint(&out->epoch) ||
      !reader.GetVarint(&count)) {
    return Malformed("truncated ANSWERS header");
  }
  if (count > static_cast<std::uint64_t>(kMaxSessionBatch)) {
    return Malformed("ANSWERS count exceeds the batch cap");
  }
  out->values.resize(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.GetF64(&out->values[i])) {
      return Malformed("truncated ANSWERS values");
    }
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes after ANSWERS");
  return Status::Ok();
}

Status ParsePlan(std::string_view payload, PlanFrame* out) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(&out->epoch) || !reader.GetString(&out->strategy) ||
      !reader.GetVarint(&out->shards) || !reader.GetString(&out->reason) ||
      !reader.GetF64(&out->predicted_mean_var) || !reader.AtEnd()) {
    return Malformed("PLAN");
  }
  return Status::Ok();
}

Status ParseStatsText(std::string_view payload, StatsTextFrame* out) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(&out->id) || !reader.GetString(&out->text) ||
      !reader.AtEnd()) {
    return Malformed("STATS_TEXT");
  }
  return Status::Ok();
}

Status ParseError(std::string_view payload, ErrorFrame* out) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(&out->id) || !reader.GetVarint(&out->code) ||
      !reader.GetString(&out->message) || !reader.AtEnd()) {
    return Malformed("ERROR");
  }
  return Status::Ok();
}

Status ParseBye(std::string_view payload, ByeFrame* out) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(&out->queries) || !reader.GetVarint(&out->epoch) ||
      !reader.AtEnd()) {
    return Malformed("BYE");
  }
  return Status::Ok();
}

Status ParseIdOnly(std::string_view payload, std::uint64_t* id) {
  PayloadReader reader(payload);
  if (!reader.GetVarint(id) || !reader.AtEnd()) {
    return Malformed("id-only request");
  }
  return Status::Ok();
}

Status ParseNote(std::string_view payload, std::string* text) {
  PayloadReader reader(payload);
  if (!reader.GetString(text) || !reader.AtEnd()) return Malformed("NOTE");
  return Status::Ok();
}

}  // namespace dphist::runtime::wire
