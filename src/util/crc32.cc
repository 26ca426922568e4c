#include "util/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace threelc::util {

namespace {

// Reflected CRC32C polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Tables {
  std::uint32_t t[4][256];
};

Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables.t[0][i] = crc;
  }
  // t[k][b] = CRC of byte b followed by k zero bytes, so four table lookups
  // cover one little-endian 32-bit chunk.
  for (std::uint32_t i = 0; i < 256; ++i) {
    tables.t[1][i] = (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xFFu];
    tables.t[2][i] = (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xFFu];
    tables.t[3][i] = (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xFFu];
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this polynomial, 8 bytes per instruction.
// These functions are compiled for SSE4.2 alone; Crc32cExtend calls them
// after checking the CPU, so the rest of the build keeps its baseline ISA.

std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

// The CRC register after `len` zero bytes, as a linear map of the register
// before them, tabulated per register byte so one shift is four lookups.
struct ShiftTable {
  std::uint32_t t[4][256];
};

__attribute__((target("sse4.2"))) ShiftTable BuildShift(std::size_t len) {
  // column[bit]: the image of the single-bit register 1 << bit. The map is
  // linear over GF(2), so each table entry is the XOR of its bits' columns.
  std::uint32_t column[32];
  for (int bit = 0; bit < 32; ++bit) {
    std::uint64_t c = 1u << bit;
    for (std::size_t i = 0; i < len; i += 8) c = _mm_crc32_u64(c, 0);
    column[bit] = static_cast<std::uint32_t>(c);
  }
  ShiftTable shift{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      for (int j = 0; j < 8; ++j) {
        if ((b >> j) & 1u) shift.t[k][b] ^= column[8 * k + j];
      }
    }
  }
  return shift;
}

std::uint32_t Shift(const ShiftTable& shift, std::uint64_t crc) {
  return shift.t[0][crc & 0xFFu] ^ shift.t[1][(crc >> 8) & 0xFFu] ^
         shift.t[2][(crc >> 16) & 0xFFu] ^ shift.t[3][(crc >> 24) & 0xFFu];
}

// Consumes whole 3*block runs of `*p`: three independent `crc32` chains,
// one per third, keep the CPU's crc unit busy instead of waiting on one
// chain's latency. The first chain continues `c`; the other two start at
// 0 and are folded in by shifting the running register over `block` zero
// bytes and XORing (CRC linearity).
__attribute__((target("sse4.2"))) std::uint64_t CrcTriples(
    std::uint64_t c, const std::uint8_t** p, std::size_t* n,
    std::size_t block, const ShiftTable& shift) {
  for (; *n >= 3 * block; *p += 3 * block, *n -= 3 * block) {
    const std::uint8_t* a = *p;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      c = _mm_crc32_u64(c, Load64(a + i));
      c1 = _mm_crc32_u64(c1, Load64(a + block + i));
      c2 = _mm_crc32_u64(c2, Load64(a + 2 * block + i));
    }
    c = Shift(shift, c) ^ c1;
    c = Shift(shift, c) ^ c2;
  }
  return c;
}

// Three-way interleaved over long inputs, after Mark Adler's crc32c.c:
// long blocks first, then short ones, then one chain for the rest.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  if (n >= 3 * internal::kCrc32cShortBlock) {
    static const ShiftTable long_shift =
        BuildShift(internal::kCrc32cLongBlock);
    static const ShiftTable short_shift =
        BuildShift(internal::kCrc32cShortBlock);
    c = CrcTriples(c, &p, &n, internal::kCrc32cLongBlock, long_shift);
    c = CrcTriples(c, &p, &n, internal::kCrc32cShortBlock, short_shift);
  }
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, Load64(p));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return internal::Crc32cExtendTable;
}

}  // namespace

namespace internal {

std::uint32_t Crc32cExtendTable(std::uint32_t crc, const void* data,
                                std::size_t n) {
  const Tables& tb = GetTables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  // Byte-at-a-time until 4-byte alignment (keeps the 32-bit loads aligned).
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 3u) != 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  while (n >= 4) {
    std::uint32_t word;
    __builtin_memcpy(&word, p, 4);  // little-endian host (see byte_buffer.cc)
    crc ^= word;
    crc = tb.t[3][crc & 0xFFu] ^ tb.t[2][(crc >> 8) & 0xFFu] ^
          tb.t[1][(crc >> 16) & 0xFFu] ^ tb.t[0][(crc >> 24) & 0xFFu];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  return ~crc;
}

}  // namespace internal

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data, n);
}

}  // namespace threelc::util
