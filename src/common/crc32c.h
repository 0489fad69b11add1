// CRC32C (Castagnoli) checksums protecting on-disk data: SSTable blocks, WAL
// records and trace files. Computed with the SSE4.2 `crc32` instruction when
// the CPU has it, otherwise with a table.
#ifndef GADGET_COMMON_CRC32C_H_
#define GADGET_COMMON_CRC32C_H_

#include <cstdint>
#include <cstddef>
#include <string_view>

namespace gadget {

// Computes CRC32C of data[0, len), continuing from `crc` (pass 0 to start).
uint32_t Crc32c(uint32_t crc, const void* data, size_t len);

inline uint32_t Crc32c(std::string_view s) { return Crc32c(0, s.data(), s.size()); }

// The table-driven implementation Crc32c falls back to. Exposed only so the
// tests can check the hardware path against it.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t len);

// Masked CRC (RocksDB-style) so that checksums of data that happens to
// contain embedded CRCs remain well distributed.
inline uint32_t MaskCrc(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + 0xa282ead8u; }
inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace gadget

#endif  // GADGET_COMMON_CRC32C_H_
