// Checksummed fixed-size page format — the unit of snapshot-file IO.
//
// Every page of the durable epoch store's snapshot file is exactly
// kPageSize bytes: a 16-byte header (magic, format version, page type,
// payload length, CRC32 of the payload) followed by up to
// kPagePayloadCapacity payload bytes and zero padding. A page is sealed
// once when written and verified on every read, so a torn write, a
// bit flip, or a file from a different format version surfaces as a
// Status at open time — never as garbage estimator state served to
// clients.

#ifndef DPHIST_STORAGE_PAGE_H_
#define DPHIST_STORAGE_PAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace dphist::storage {

inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::size_t kPageHeaderSize = 16;
inline constexpr std::size_t kPagePayloadCapacity =
    kPageSize - kPageHeaderSize;

/// "DPG1" — rejects files that are not dphist snapshot pages at all.
inline constexpr std::uint32_t kPageMagic = 0x31475044;
inline constexpr std::uint16_t kPageFormatVersion = 1;

enum class PageType : std::uint16_t {
  kFree = 0,
  kSnapshotMeta = 1,  // epoch/options/profile header of a snapshot file
  kSnapshotData = 2,  // one chunk of the serialized estimator state
};

/// One fixed-size disk page. Plain bytes; sealed/verified by the
/// functions below.
struct Page {
  std::array<char, kPageSize> bytes{};
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG checksum) of `size`
/// bytes. `seed` chains multi-buffer checksums: pass the previous call's
/// result to continue a running CRC.
///
/// Two implementations, one value. On an x86-64 CPU with PCLMULQDQ and
/// SSE4.1 (checked once per process) an input of 64 bytes or more folds
/// four 128-bit lanes per 64-byte block with carry-less multiplies and
/// reduces them by Barrett reduction; its last size % 16 bytes, every
/// shorter input, and every other build go through the slicing-by-8
/// table loop below. Both compute the same reflected polynomial with the
/// same seed and chaining, so a checksum never depends on the host.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

namespace internal {
/// The slicing-by-8 table loop: Crc32's portable path and its tests'
/// reference.
std::uint32_t Crc32SlicingBy8(const void* data, std::size_t size,
                              std::uint32_t seed);
}  // namespace internal

/// What OpenPage found in a verified page.
struct PageView {
  PageType type = PageType::kFree;
  /// Points into the Page passed to OpenPage; valid while it lives.
  std::string_view payload;
};

/// Where a page's payload starts. A writer that fills it in place and
/// passes it to SealPage seals the page without copying the payload.
inline char* PagePayload(Page* page) {
  return page->bytes.data() + kPageHeaderSize;
}

/// Writes header + payload + zero padding into `page`. `payload` lies
/// outside `page` or is PagePayload(page) itself. Fails when the payload
/// exceeds kPagePayloadCapacity.
Status SealPage(PageType type, const void* payload, std::size_t payload_size,
                Page* page);

/// Verifies magic, version, payload length, and checksum; any mismatch
/// is an IoError naming what failed (a corrupt page must refuse loudly,
/// not decode as a shorter or different payload).
Result<PageView> OpenPage(const Page& page);

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_PAGE_H_
