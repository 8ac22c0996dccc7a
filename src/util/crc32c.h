// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding WAL
// records, checkpoint and snapshot payloads, and RJNET001 frames. Two
// bodies, selected at run time like the util/simd kernels: the SSE4.2
// `crc32` instruction when the SIMD mode is AVX2 (every AVX2 CPU has
// SSE4.2), and a portable slice-by-8 table otherwise. REJECTO_SIMD=scalar
// forces the table, which is the oracle; both are bit-identical. The check
// value of "123456789" is 0xE3069283.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rejecto::util {

// CRC of `len` bytes starting at `data`, continuing from `crc` (pass 0 to
// start; feed a previous result to checksum incrementally).
std::uint32_t Crc32c(const void* data, std::size_t len,
                     std::uint32_t crc = 0);

}  // namespace rejecto::util
