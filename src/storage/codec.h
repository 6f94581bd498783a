// Byte-level serialization helpers for the durable epoch store.
//
// Everything the storage layer encodes — WAL record payloads, the
// snapshot's meta payload and the framing around its doubles — goes
// through these two classes so the on-disk encoding is defined in
// exactly one place: fixed-width little-endian integers, IEEE-754
// doubles carried bit-exactly through a uint64 round-trip (recovery
// must reproduce release state and the accountant ledger to the last
// bit, so no decimal formatting is ever involved), and u32-length-
// prefixed strings. Double vectors, the bulk of a snapshot, are copied
// as raw bytes: on a little-endian host a double's object
// representation is already its on-disk encoding, so the snapshot
// writer copies a release's doubles straight into its pages and the
// reader copies them straight back into a shard's array.

#ifndef DPHIST_STORAGE_CODEC_H_
#define DPHIST_STORAGE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dphist::storage {

static_assert(std::endian::native == std::endian::little,
              "doubles are copied in host byte order; the storage format "
              "is little-endian");

/// Appends fixed-width little-endian values to a growing byte buffer.
class ByteWriter {
 public:
  void U8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

  void U16(std::uint16_t value) { AppendLittleEndian(value, 2); }
  void U32(std::uint32_t value) { AppendLittleEndian(value, 4); }
  void U64(std::uint64_t value) { AppendLittleEndian(value, 8); }

  void I64(std::int64_t value) {
    U64(static_cast<std::uint64_t>(value));
  }

  /// Bit-exact: the double's object representation, not its decimal
  /// rendering, so replay reproduces NaN payloads and -0.0 too.
  void F64(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  void Bytes(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// u32 length prefix + raw bytes.
  void String(std::string_view value) {
    U32(static_cast<std::uint32_t>(value.size()));
    buf_.append(value.data(), value.size());
  }

  /// u64 count + the doubles, each encoded exactly as F64 would.
  void F64Vector(const std::vector<double>& values) {
    U64(static_cast<std::uint64_t>(values.size()));
    Bytes(values.data(), values.size() * sizeof(double));
  }

  const std::string& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  /// Hands the encoded bytes over without copying them.
  std::string Take() && { return std::move(buf_); }

 private:
  void AppendLittleEndian(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  }

  std::string buf_;
};

/// Reads a ByteWriter stream back. Never throws and never reads past the
/// end: any underrun (or oversized string) latches ok() false and every
/// subsequent read returns zero — callers validate ok() once at the end
/// of a parse instead of checking every field.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view data)
      : ByteReader(data.data(), data.size()) {}

  std::uint8_t U8() {
    if (!Require(1)) return 0;
    return static_cast<std::uint8_t>(*p_++);
  }

  std::uint16_t U16() { return static_cast<std::uint16_t>(ReadLE(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(ReadLE(4)); }
  std::uint64_t U64() { return ReadLE(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  double F64() {
    const std::uint64_t bits = U64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string String() {
    const std::uint32_t size = U32();
    if (!Require(size)) return {};
    std::string out(p_, size);
    p_ += size;
    return out;
  }

  std::size_t Remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool AtEnd() const { return p_ == end_; }
  bool ok() const { return ok_; }

 private:
  bool Require(std::size_t bytes) {
    if (!ok_ || Remaining() < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::uint64_t ReadLE(int bytes) {
    if (!Require(static_cast<std::size_t>(bytes))) return 0;
    std::uint64_t value = 0;
    for (int i = 0; i < bytes; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p_++))
               << (8 * i);
    }
    return value;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_CODEC_H_
