// CRC32C (Castagnoli) tests: published known-answer vectors, the
// incremental-extend convention, alignment-independence, and bit-for-bit
// agreement of the dispatched (hardware, where the CPU has it) path with
// the slice-by-4 table path, interleaved blocks included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"

namespace threelc::util {
namespace {

std::uint32_t CrcOfString(const std::string& s) {
  return Crc32c(s.data(), s.size());
}

// RFC 3720 / leveldb / snappy known-answer vectors.
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(CrcOfString("123456789"), 0xE3069283u);
  EXPECT_EQ(CrcOfString("a"), 0xC1D04330u);
  EXPECT_EQ(CrcOfString(""), 0x00000000u);

  std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  std::vector<std::uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32c, ExtendMatchesOneShotAtEverySplitPoint) {
  std::vector<std::uint8_t> data(257);
  Rng rng(11);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  const std::uint32_t whole = Crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// The slice-by-4 word loop must agree with the byte loop regardless of the
// buffer's alignment relative to a 4-byte boundary.
TEST(Crc32c, AlignmentIndependent) {
  std::vector<std::uint8_t> backing(128 + 8);
  Rng rng(12);
  for (auto& b : backing) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    // Same logical bytes placed at different alignments.
    std::vector<std::uint8_t> copy(backing.begin(),
                                   backing.begin() + 128);
    std::memcpy(backing.data() + offset, copy.data(), copy.size());
    EXPECT_EQ(Crc32c(backing.data() + offset, copy.size()),
              Crc32c(copy.data(), copy.size()))
        << "offset " << offset;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64);
  Rng rng(13);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  const std::uint32_t baseline = Crc32c(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), baseline)
          << "flip byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// Every length 0..1024 at every alignment 0..7 covers the 8-byte loop, its
// byte tail and every split between them.
TEST(Crc32c, DispatchedPathMatchesTablePath) {
  std::vector<std::uint8_t> backing(1024 + 8);
  Rng rng(14);
  for (auto& b : backing) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::uint8_t* p = backing.data() + offset;
      ASSERT_EQ(Crc32c(p, n), internal::Crc32cExtendTable(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32c, DispatchedExtendMatchesTableAtEverySplitPoint) {
  std::vector<std::uint8_t> data(300);
  Rng rng(15);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = Crc32c(data.data(), split);
    ASSERT_EQ(head, internal::Crc32cExtendTable(0, data.data(), split));
    const std::size_t rest = data.size() - split;
    ASSERT_EQ(Crc32cExtend(head, data.data() + split, rest),
              internal::Crc32cExtendTable(head, data.data() + split, rest))
        << "split at " << split;
  }
}

// The hardware path runs three interleaved chains over 3 * block runs
// for two block sizes; the sweep above is too short to reach the long
// ones. Lengths around every multiple-of-three boundary, at every
// alignment, and every split of a ~100 KB input (so each chain, each
// fold and each tail meets every phase) must match the table path.
TEST(Crc32c, DispatchedInterleavedPathMatchesTablePath) {
  constexpr std::size_t kLong = internal::kCrc32cLongBlock;
  constexpr std::size_t kShort = internal::kCrc32cShortBlock;
  const std::size_t big = 12 * kLong + 9 * kShort + 13;  // ~100 KB
  std::vector<std::uint8_t> backing(big + 8);
  Rng rng(16);
  for (auto& b : backing) b = static_cast<std::uint8_t>(rng.Next());

  for (const std::size_t block : {kShort, kLong}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = backing.data() + offset;
      for (int delta = -17; delta <= 17; ++delta) {
        const std::size_t n = 3 * block + delta;
        ASSERT_EQ(Crc32c(p, n), internal::Crc32cExtendTable(0, p, n))
            << "block " << block << " offset " << offset << " length " << n;
      }
    }
  }

  const std::uint32_t whole = internal::Crc32cExtendTable(0, backing.data(),
                                                          big);
  for (std::size_t split = 0; split <= big; ++split) {
    const std::uint32_t head = Crc32c(backing.data(), split);
    ASSERT_EQ(Crc32cExtend(head, backing.data() + split, big - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32c, ByteSpanOverloadMatches) {
  const std::string s = "3LC traffic compression";
  ByteSpan span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  EXPECT_EQ(Crc32c(span), CrcOfString(s));
}

}  // namespace
}  // namespace threelc::util
