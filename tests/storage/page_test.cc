#include "storage/page.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "storage/codec.h"

namespace dphist::storage {
namespace {

/// CRC-32 one byte and one bit at a time over the reflected IEEE
/// polynomial: the reference the table-driven Crc32 must match.
std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t size,
                           std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

/// Deterministic bytes (a 64-bit LCG's high byte per step).
std::vector<unsigned char> TestBytes(std::size_t size) {
  std::vector<unsigned char> bytes(size);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

TEST(PageTest, SealAndOpenRoundTrip) {
  const std::string payload = "per-shard estimator state";
  Page page;
  ASSERT_TRUE(
      SealPage(PageType::kSnapshotData, payload.data(), payload.size(), &page)
          .ok());
  Result<PageView> view = OpenPage(page);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().type, PageType::kSnapshotData);
  EXPECT_EQ(view.value().payload, payload);
}

TEST(PageTest, EmptyPayloadIsValid) {
  Page page;
  ASSERT_TRUE(SealPage(PageType::kSnapshotMeta, nullptr, 0, &page).ok());
  Result<PageView> view = OpenPage(page);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view.value().payload.empty());
}

TEST(PageTest, FullCapacityPayloadFitsExactly) {
  std::string payload(kPagePayloadCapacity, 'x');
  Page page;
  ASSERT_TRUE(
      SealPage(PageType::kSnapshotData, payload.data(), payload.size(), &page)
          .ok());
  Result<PageView> view = OpenPage(page);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().payload.size(), kPagePayloadCapacity);

  payload.push_back('y');
  EXPECT_FALSE(
      SealPage(PageType::kSnapshotData, payload.data(), payload.size(), &page)
          .ok());
}

TEST(PageTest, SealingInPlaceEqualsSealingACopy) {
  // A payload written straight into PagePayload seals to the same bytes
  // as a copied one, whatever the page held past it before.
  const std::string payload = "written where it will be sealed";
  Page copied;
  ASSERT_TRUE(
      SealPage(PageType::kSnapshotData, payload.data(), payload.size(), &copied)
          .ok());
  Page in_place;
  in_place.bytes.fill('?');
  std::memcpy(PagePayload(&in_place), payload.data(), payload.size());
  ASSERT_TRUE(SealPage(PageType::kSnapshotData, PagePayload(&in_place),
                       payload.size(), &in_place)
                  .ok());
  EXPECT_EQ(in_place.bytes, copied.bytes);
}

TEST(PageTest, BitFlipInPayloadIsRefused) {
  const std::string payload = "the checksum must catch this";
  Page page;
  ASSERT_TRUE(
      SealPage(PageType::kSnapshotData, payload.data(), payload.size(), &page)
          .ok());
  page.bytes[kPageHeaderSize + 3] ^= 0x01;
  Result<PageView> view = OpenPage(page);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIoError);
}

TEST(PageTest, WrongMagicIsRefused) {
  Page page;
  ASSERT_TRUE(SealPage(PageType::kSnapshotMeta, "m", 1, &page).ok());
  page.bytes[0] = 'X';
  Result<PageView> view = OpenPage(page);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIoError);
}

TEST(PageTest, ZeroedPageIsRefusedNotDecodedAsEmpty) {
  // A page of all zeros (e.g. a hole from a torn multi-page write) must
  // refuse at the magic check, not open as an empty kFree page.
  Page page{};
  EXPECT_FALSE(OpenPage(page).ok());
}

TEST(PageTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Chaining two halves must equal one pass.
  std::uint32_t chained = Crc32("12345", 5);
  chained = Crc32("6789", 4, chained);
  EXPECT_EQ(chained, 0xCBF43926u);
}

TEST(PageTest, Crc32MatchesBytewiseReference) {
  const std::vector<unsigned char> bytes = TestBytes(kPagePayloadCapacity + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 64; ++length) {
    lengths.push_back(length);
  }
  lengths.push_back(kPagePayloadCapacity);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length : lengths) {
      EXPECT_EQ(Crc32(bytes.data() + offset, length),
                BitwiseCrc32(bytes.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(PageTest, Crc32ChainsAcrossEverySplit) {
  const std::vector<unsigned char> bytes = TestBytes(kPagePayloadCapacity);
  const std::uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

// Crc32 may run a carry-less-multiply kernel; whatever this host runs
// must equal the slicing-by-8 loop at every length and alignment around
// the kernel's 64-byte entry and 16-byte tail, and at the sizes the
// store checksums (a page payload, a page, a 64 KB run, a 2.1 MB image).
TEST(PageTest, Crc32DispatchMatchesSlicingBy8) {
  const std::vector<unsigned char> bytes = TestBytes(2113597 + 16);
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 1100; ++length) {
    lengths.push_back(length);
  }
  lengths.insert(lengths.end(), {kPagePayloadCapacity, kPageSize, 65536,
                                 2113597});
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu}) {
      for (std::size_t length : lengths) {
        const unsigned char* p = bytes.data() + offset;
        ASSERT_EQ(Crc32(p, length, seed),
                  internal::Crc32SlicingBy8(p, length, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }
}

TEST(PageTest, Crc32DispatchChainsAcrossEverySplit) {
  const std::vector<unsigned char> bytes = TestBytes(1100);
  for (std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu}) {
    const std::uint32_t whole =
        internal::Crc32SlicingBy8(bytes.data(), bytes.size(), seed);
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
      const std::uint32_t head = Crc32(bytes.data(), split, seed);
      EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head),
                whole)
          << "seed " << seed << " split " << split;
    }
  }
}

TEST(PageTest, F64VectorRoundTripsBitExactly) {
  const std::vector<double> values = {
      FromBits(0x7FF8000000001234ull),  // quiet NaN with a payload
      FromBits(0xFFF0000000000001ull),  // signalling NaN, sign bit set
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      FromBits(0x800FFFFFFFFFFFFFull),  // largest negative denormal
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      0.1,
  };
  for (const std::vector<double>& vector : {values, std::vector<double>{}}) {
    ByteWriter bulk;
    bulk.F64Vector(vector);
    // The bulk copy must encode exactly what one F64 per element does.
    ByteWriter one_by_one;
    one_by_one.U64(vector.size());
    for (double v : vector) one_by_one.F64(v);
    EXPECT_EQ(bulk.data(), one_by_one.data());

    ByteReader in(bulk.data());
    ASSERT_EQ(in.U64(), vector.size());
    for (std::size_t i = 0; i < vector.size(); ++i) {
      EXPECT_EQ(Bits(in.F64()), Bits(vector[i])) << "element " << i;
    }
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(PageTest, ReadPastEndLatchesNotOk) {
  // Three doubles promised, two present.
  ByteWriter short_by_one;
  short_by_one.U64(3);
  short_by_one.F64(1.0);
  short_by_one.F64(2.0);
  ByteReader in(short_by_one.data());
  EXPECT_EQ(in.U64(), 3u);
  EXPECT_EQ(in.F64(), 1.0);
  EXPECT_EQ(in.F64(), 2.0);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.F64(), 0.0);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.U64(), 0u);  // latched: later reads return zero
}

}  // namespace
}  // namespace dphist::storage
