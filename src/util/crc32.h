// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the payload checksum shared
// by the RPC wire framing (rpc/frame) and the optional checkpoint trailer
// (nn/checkpoint).
//
// Two implementations, one result. On x86-64 CPUs with SSE4.2 (checked
// once, at the first call) the `crc32` instruction folds 8 bytes per step.
// Inputs of at least three short blocks run three independent `crc32`
// chains over adjacent thirds of each 3-block run and merge them with
// precomputed zero-byte shift tables (after Mark Adler's crc32c.c), so
// the instruction's latency no longer bounds the speed; shorter inputs
// and tails take one chain. Elsewhere a slice-by-4 table lookup (four
// 256-entry tables, 4 input bytes per iteration) computes the same bits.
// Nothing selects between them but the CPU: no build option, flag or
// environment variable.
//
// Convention (matches leveldb/rocksdb crc32c): values are *finalized*
// CRCs. Crc32cExtend(prev, ...) takes a finalized CRC and returns the
// finalized CRC of the concatenation, so incremental use is simply
//   crc = Crc32cExtend(crc, chunk.data(), chunk.size());
// starting from 0 (== Crc32c of the empty string).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/byte_buffer.h"

namespace threelc::util {

// CRC32C of `data[0, n)` continued from a previous finalized CRC.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t n);

// One-shot CRC32C. Crc32c("123456789", 9) == 0xE3069283.
inline std::uint32_t Crc32c(const void* data, std::size_t n) {
  return Crc32cExtend(0, data, n);
}
inline std::uint32_t Crc32c(ByteSpan s) { return Crc32c(s.data(), s.size()); }

namespace internal {
// Interleave block sizes of the hardware path: runs of 3 * kLong bytes
// first, then runs of 3 * kShort, then a single chain.
constexpr std::size_t kCrc32cLongBlock = 8192;
constexpr std::size_t kCrc32cShortBlock = 256;

// The portable slice-by-4 path, callable directly so tests can hold the
// hardware path to it byte for byte.
std::uint32_t Crc32cExtendTable(std::uint32_t crc, const void* data,
                                std::size_t n);
}  // namespace internal

}  // namespace threelc::util
