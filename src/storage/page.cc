#include "storage/page.h"

#include <cstring>

#include "storage/codec.h"

#if defined(__x86_64__) || defined(_M_X64)
#define DPHIST_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define DPHIST_CRC32_CLMUL 0
#endif

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

/// `value`'s low `bytes` bytes at `p`, little-endian.
void StoreLittleEndian(char* p, std::uint32_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<char>((value >> (8 * i)) & 0xffu);
  }
}

#if DPHIST_CRC32_CLMUL

/// One fold: the 128-bit lane `x` times the fold constants `k` (low
/// qword by k's low, high qword by k's high), plus the next 16 input
/// bytes `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// The CRC register `crc` (inverted, as the table loop keeps it) run
/// over `size` bytes, a multiple of 16 and at least 64, by carry-less
/// multiplication (Intel, "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ"). The constants are that paper's bit-reflected ones
/// for the IEEE polynomial P, as zlib and Linux use them: k1 and k2
/// fold each lane 64 bytes ahead, k3 and k4 fold one lane 16 bytes
/// ahead, k5 folds 128 bits to 64, and P with mu = floor(x^64 / P)
/// reduce the rest to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t Crc32Clmul(
    const unsigned char* p, std::size_t size, std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, load(p));
    x1 = Fold(x1, k1k2, load(p + 16));
    x2 = Fold(x2, k1k2, load(p + 32));
    x3 = Fold(x3, k1k2, load(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k3k4, load(p));

  // 128 bits to 64, then to 32 + 32 bits of remainder.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_and_si128(x0, low32);
  t = _mm_and_si128(_mm_clmulepi64_si128(t, poly_mu, 0x10), low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool ClmulSupported() {
  static const bool supported = __builtin_cpu_supports("pclmul") != 0 &&
                                __builtin_cpu_supports("sse4.1") != 0;
  return supported;
}

#endif  // DPHIST_CRC32_CLMUL

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
#if DPHIST_CRC32_CLMUL
  if (size >= 64 && ClmulSupported()) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t folded = size & ~std::size_t{15};
    seed = ~Crc32Clmul(p, folded, ~seed);
    return internal::Crc32SlicingBy8(p + folded, size - folded, seed);
  }
#endif
  return internal::Crc32SlicingBy8(data, size, seed);
}

std::uint32_t internal::Crc32SlicingBy8(const void* data, std::size_t size,
                                        std::uint32_t seed) {
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
  char* body = PagePayload(page);
  if (payload != body && payload_size > 0) {
    std::memcpy(body, payload, payload_size);
  }
  std::memset(body + payload_size, 0, kPagePayloadCapacity - payload_size);
  char* header = page->bytes.data();
  StoreLittleEndian(header, kPageMagic, 4);
  StoreLittleEndian(header + 4, kPageFormatVersion, 2);
  StoreLittleEndian(header + 6, static_cast<std::uint16_t>(type), 2);
  StoreLittleEndian(header + 8, static_cast<std::uint32_t>(payload_size), 4);
  StoreLittleEndian(header + 12, Crc32(body, payload_size), 4);
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
