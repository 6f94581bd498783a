// Unit tests for the binary frame protocol: primitive round trips,
// incremental decoding from partial buffers, and the hostile-input
// rejections (oversized lengths, unknown types, trailing bytes).

#include "runtime/wire_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "runtime/session.h"

namespace dphist::runtime::wire {
namespace {

TEST(WireFormatTest, VarintRoundTripsEdgeValues) {
  const std::uint64_t values[] = {
      0,    1,    127,        128,
      300,  16383, 16384,     std::uint64_t{1} << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t value : values) {
    std::string buffer;
    PutVarint(&buffer, value);
    PayloadReader reader(buffer);
    std::uint64_t decoded = 0;
    ASSERT_TRUE(reader.GetVarint(&decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireFormatTest, VarintRejectsTruncationAndOverflow) {
  // A lone continuation byte is truncated.
  PayloadReader truncated(std::string_view("\x80", 1));
  std::uint64_t value = 0;
  EXPECT_FALSE(truncated.GetVarint(&value));
  // Eleven continuation groups exceed 64 bits.
  std::string overlong(10, '\x80');
  overlong.push_back('\x02');
  PayloadReader overflow(overlong);
  EXPECT_FALSE(overflow.GetVarint(&value));
}

TEST(WireFormatTest, F64RoundTripsExactBits) {
  const double values[] = {0.0, -0.0, 1.5, -123456.789,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  for (double value : values) {
    std::string buffer;
    PutF64(&buffer, value);
    ASSERT_EQ(buffer.size(), 8u);
    PayloadReader reader(buffer);
    double decoded = 0.0;
    ASSERT_TRUE(reader.GetF64(&decoded));
    EXPECT_EQ(std::signbit(decoded), std::signbit(value));
    EXPECT_EQ(decoded, value);
  }
}

TEST(WireFormatTest, QueryFrameRoundTrips) {
  const std::vector<Interval> ranges = {Interval(0, 0), Interval(3, 100),
                                        Interval(100, 127)};
  std::string buffer;
  EncodeQuery(42, 7, ranges.data(), ranges.size(), &buffer);

  Frame frame;
  auto consumed = DecodeFrame(buffer, &frame);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.value(), buffer.size());
  ASSERT_EQ(frame.type, FrameType::kQuery);

  QueryFrame query;
  ASSERT_TRUE(ParseQuery(frame.payload, /*domain_size=*/128, &query).ok());
  EXPECT_EQ(query.id, 42u);
  EXPECT_EQ(query.expect_epoch, 7u);
  ASSERT_EQ(query.ranges.size(), ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(query.ranges[i].lo(), ranges[i].lo());
    EXPECT_EQ(query.ranges[i].hi(), ranges[i].hi());
  }
}

TEST(WireFormatTest, ParseQueryRejectsBadRangesAsOutOfRange) {
  const Interval bad(5, 200);
  std::string buffer;
  EncodeQuery(1, 0, &bad, 1, &buffer);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(buffer, &frame).ok());
  QueryFrame query;
  Status status = ParseQuery(frame.payload, /*domain_size=*/128, &query);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(WireFormatTest, ParseQueryRejectsOversizedBatch) {
  std::string payload;
  PutVarint(&payload, 1);                               // id
  PutVarint(&payload, 0);                               // expect_epoch
  PutVarint(&payload, static_cast<std::uint64_t>(kMaxSessionBatch) + 1);
  QueryFrame query;
  Status status = ParseQuery(payload, /*domain_size=*/128, &query);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, ParseQueryRefusesACountItsPayloadCannotHold) {
  // Five bytes that claim 2^20 ranges: refused as truncated (framing is
  // broken) without reading or reserving a range, and a reused frame
  // comes back with the fields this payload carried.
  std::string payload;
  PutVarint(&payload, 7);  // id
  PutVarint(&payload, 0);  // expect_epoch
  PutVarint(&payload, std::uint64_t{1} << 20);
  ASSERT_EQ(payload.size(), 5u);
  QueryFrame query;
  query.expect_epoch = 3;
  query.ranges = {Interval(0, 1)};
  Status status = ParseQuery(payload, /*domain_size=*/1 << 16, &query);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("truncated QUERY range"), std::string::npos);
  EXPECT_EQ(query.id, 7u);
  EXPECT_EQ(query.expect_epoch, 0u);

  // One range short of its count: still truncated, as before.
  std::string short_payload;
  PutVarint(&short_payload, 8);
  PutVarint(&short_payload, 0);
  PutVarint(&short_payload, 2);
  PutVarint(&short_payload, 1);
  PutVarint(&short_payload, 2);
  PutVarint(&short_payload, 3);
  EXPECT_EQ(ParseQuery(short_payload, 16, &query).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, AnswersFrameBytesArePinned) {
  // EncodeAnswers writes the frame in place; its bytes are the frame of
  // the payload (id, epoch, count, little-endian doubles).
  const double values[] = {1.0, -0.0, 1801.365, 1e300};
  std::string payload;
  PutVarint(&payload, 300);
  PutVarint(&payload, std::uint64_t{1} << 40);
  PutVarint(&payload, 4);
  for (double value : values) PutF64(&payload, value);
  std::string expected = "prefix";
  AppendFrame(FrameType::kAnswers, payload, &expected);
  std::string encoded = "prefix";
  EncodeAnswers(300, std::uint64_t{1} << 40, values, 4, &encoded);
  EXPECT_EQ(encoded, expected);
  std::string empty;
  EncodeAnswers(0, 1, values, 0, &empty);
  EXPECT_EQ(empty, std::string("\x82\x03\x00\x01\x00", 5));
}

TEST(WireFormatTest, AnswersPlanAndByeRoundTrip) {
  std::string buffer;
  const double values[] = {1.0, 2.5, -3.0};
  EncodeAnswers(9, 4, values, 3, &buffer);
  EncodePlan(5, "hbar", 2, "every", 123.456, &buffer);
  EncodeBye(77, 5, &buffer);

  Frame frame;
  auto first = DecodeFrame(buffer, &frame);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(frame.type, FrameType::kAnswers);
  AnswersFrame answers;
  ASSERT_TRUE(ParseAnswers(frame.payload, &answers).ok());
  EXPECT_EQ(answers.id, 9u);
  EXPECT_EQ(answers.epoch, 4u);
  ASSERT_EQ(answers.values.size(), 3u);
  EXPECT_EQ(answers.values[2], -3.0);

  std::string_view rest = std::string_view(buffer).substr(first.value());
  auto second = DecodeFrame(rest, &frame);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(frame.type, FrameType::kPlan);
  PlanFrame plan;
  ASSERT_TRUE(ParsePlan(frame.payload, &plan).ok());
  EXPECT_EQ(plan.epoch, 5u);
  EXPECT_EQ(plan.strategy, "hbar");
  EXPECT_EQ(plan.shards, 2u);
  EXPECT_EQ(plan.reason, "every");
  EXPECT_EQ(plan.predicted_mean_var, 123.456);

  rest = rest.substr(second.value());
  auto third = DecodeFrame(rest, &frame);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(frame.type, FrameType::kBye);
  ByeFrame bye;
  ASSERT_TRUE(ParseBye(frame.payload, &bye).ok());
  EXPECT_EQ(bye.queries, 77u);
  EXPECT_EQ(bye.epoch, 5u);
  EXPECT_TRUE(rest.substr(third.value()).empty());
}

TEST(WireFormatTest, DecodeReportsNeedMoreOnEveryPrefix) {
  const Interval range(2, 9);
  std::string buffer;
  EncodeQuery(3, 0, &range, 1, &buffer);
  // Every strict prefix must decode to "need more bytes", never an
  // error and never a spurious frame.
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    Frame frame;
    auto consumed = DecodeFrame(std::string_view(buffer).substr(0, cut),
                                &frame);
    ASSERT_TRUE(consumed.ok()) << "cut=" << cut;
    EXPECT_EQ(consumed.value(), 0u) << "cut=" << cut;
  }
}

TEST(WireFormatTest, DecodeRejectsUnknownTypeAndHostileLength) {
  Frame frame;
  // 0x7F is not a frame type.
  EXPECT_FALSE(DecodeFrame(std::string_view("\x7F\x00", 2), &frame).ok());
  // A length varint claiming ~2^62 bytes must be rejected outright, not
  // buffered toward.
  std::string hostile;
  hostile.push_back(static_cast<char>(FrameType::kQuery));
  for (int i = 0; i < 8; ++i) hostile.push_back('\xFF');
  hostile.push_back('\x3F');
  EXPECT_FALSE(DecodeFrame(hostile, &frame).ok());
  // An in-bounds varint that still exceeds kMaxFramePayload is rejected.
  std::string oversized;
  oversized.push_back(static_cast<char>(FrameType::kQuery));
  PutVarint(&oversized, kMaxFramePayload + 1);
  EXPECT_FALSE(DecodeFrame(oversized, &frame).ok());
}

TEST(WireFormatTest, TrailingBytesAreMalformed) {
  std::string buffer;
  EncodeStatsRequest(4, &buffer);
  Frame frame;
  ASSERT_TRUE(DecodeFrame(buffer, &frame).ok());
  std::string padded(frame.payload);
  padded.push_back('\x00');
  std::uint64_t id = 0;
  EXPECT_FALSE(ParseIdOnly(padded, &id).ok());
}

TEST(WireFormatTest, StringsRoundTripThroughStatsAndError) {
  std::string buffer;
  EncodeStatsText(6, "epoch=3 strategy=hbar", &buffer);
  EncodeError(7, WireError::kEpochMismatch, "epoch 2 is gone", &buffer);

  Frame frame;
  auto first = DecodeFrame(buffer, &frame);
  ASSERT_TRUE(first.ok());
  StatsTextFrame stats;
  ASSERT_TRUE(ParseStatsText(frame.payload, &stats).ok());
  EXPECT_EQ(stats.id, 6u);
  EXPECT_EQ(stats.text, "epoch=3 strategy=hbar");

  auto second =
      DecodeFrame(std::string_view(buffer).substr(first.value()), &frame);
  ASSERT_TRUE(second.ok());
  ErrorFrame error;
  ASSERT_TRUE(ParseError(frame.payload, &error).ok());
  EXPECT_EQ(error.id, 7u);
  EXPECT_EQ(error.code,
            static_cast<std::uint64_t>(WireError::kEpochMismatch));
  EXPECT_EQ(error.message, "epoch 2 is gone");
}

}  // namespace
}  // namespace dphist::runtime::wire
