#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "util/simd.h"

namespace rejecto::util {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41

struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Tables kTables{};

// Both bodies take and return the inverted register.
std::uint32_t Crc32cTable(const unsigned char* p, std::size_t len,
                          std::uint32_t crc) {
  while (len >= 8) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[7][crc & 0xff] ^ kTables.t[6][(crc >> 8) & 0xff] ^
          kTables.t[5][(crc >> 16) & 0xff] ^ kTables.t[4][crc >> 24] ^
          kTables.t[3][p[4]] ^ kTables.t[2][p[5]] ^ kTables.t[1][p[6]] ^
          kTables.t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xff];
  }
  return crc;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const unsigned char* p, std::size_t len, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (len >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // x86 is little-endian
    c = _mm_crc32_u64(c, word);
    p += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

bool UseSse42() {
  static const bool supported = __builtin_cpu_supports("sse4.2") != 0;
  return supported && simd::ActiveMode() == simd::SimdMode::kAvx2;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t Crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (UseSse42()) return ~Crc32cSse42(p, len, ~crc);
#endif
  return ~Crc32cTable(p, len, ~crc);
}

}  // namespace rejecto::util
