#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gadget {
namespace {

// Table for the portable CRC32C, 8 bits at a time. Built at compile time, so
// it is ready before any static initializer runs.
constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  constexpr uint32_t kPoly = 0x82f63b78u;  // reversed Castagnoli polynomial
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[i] = crc;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeCrc32cTable();

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes CRC32C: 8 bytes per step, then the
// tail a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc, const void* data,
                                                       size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc64 = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  for (; len > 0; ++p, --len) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn ChooseCrc32c() {
#if defined(__x86_64__)
  // Needed when the first checksum runs before the constructors that would
  // otherwise initialize the CPU model (a static initializer's call).
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return Crc32cSse42;
  }
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xff];
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const void* data, size_t len) {
  // Chosen on first use, which is safe from a static initializer too.
  static const Crc32cFn impl = ChooseCrc32c();
  return impl(crc, data, len);
}

}  // namespace gadget
