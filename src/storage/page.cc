#include "storage/page.h"

#include <cstring>

#include "storage/codec.h"

namespace dphist::storage {
namespace {

using Crc32Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables for the reflected IEEE polynomial: tables[0] is
/// the classic bytewise table, and tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so one step folds eight input bytes with
/// eight independent lookups.
constexpr std::array<Crc32Table, 8> BuildCrc32Tables() {
  std::array<Crc32Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<Crc32Table, 8> kCrc32Tables = BuildCrc32Tables();

/// Four bytes as a little-endian word, whatever the host byte order.
std::uint32_t LoadLittleEndian32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const std::array<Crc32Table, 8>& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadLittleEndian32(p);
    const std::uint32_t hi = LoadLittleEndian32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

Status SealPage(PageType type, const void* payload, std::size_t payload_size,
                Page* page) {
  if (payload_size > kPagePayloadCapacity) {
    return Status::InvalidArgument("page payload exceeds capacity");
  }
  ByteWriter header;
  header.U32(kPageMagic);
  header.U16(kPageFormatVersion);
  header.U16(static_cast<std::uint16_t>(type));
  header.U32(static_cast<std::uint32_t>(payload_size));
  header.U32(Crc32(payload, payload_size));
  page->bytes.fill(0);
  std::memcpy(page->bytes.data(), header.data().data(), kPageHeaderSize);
  if (payload_size > 0) {
    std::memcpy(page->bytes.data() + kPageHeaderSize, payload, payload_size);
  }
  return Status::Ok();
}

Result<PageView> OpenPage(const Page& page) {
  ByteReader header(page.bytes.data(), kPageHeaderSize);
  const std::uint32_t magic = header.U32();
  const std::uint16_t version = header.U16();
  const std::uint16_t type = header.U16();
  const std::uint32_t payload_size = header.U32();
  const std::uint32_t checksum = header.U32();
  if (magic != kPageMagic) {
    return Status::IoError("corrupt page: bad magic");
  }
  if (version != kPageFormatVersion) {
    return Status::IoError("unsupported page format version " +
                           std::to_string(version));
  }
  if (payload_size > kPagePayloadCapacity) {
    return Status::IoError("corrupt page: payload length exceeds capacity");
  }
  const char* payload = page.bytes.data() + kPageHeaderSize;
  if (Crc32(payload, payload_size) != checksum) {
    return Status::IoError("corrupt page: checksum mismatch");
  }
  PageView view;
  view.type = static_cast<PageType>(type);
  view.payload = std::string_view(payload, payload_size);
  return view;
}

}  // namespace dphist::storage
