#include "blockcodec/rans.h"

#include <algorithm>
#include <cstring>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace threelc::blockcodec::rans {
namespace {

struct EncSymbol {
  // Renormalization threshold freq << 20, kept 64-bit: a probability-1
  // symbol (freq = 4096) has threshold 2^32, i.e. never renormalizes —
  // its encode step is the identity and carries zero information.
  std::uint64_t x_max = 0;
  std::uint32_t freq = 0;
  std::uint32_t start = 0;  // cumulative start of the symbol's range
};

// Scale raw counts to sum exactly kProbScale, keeping every present
// symbol >= 1. Rounding drift (at most ~256 either way) is settled on
// the most frequent symbol.
void NormalizeFreqs(const std::uint64_t counts[256], std::uint64_t total,
                    std::uint16_t freq[256]) {
  std::uint32_t sum = 0;
  for (int s = 0; s < 256; ++s) {
    if (counts[s] == 0) {
      freq[s] = 0;
      continue;
    }
    std::uint64_t f = counts[s] * kProbScale / total;
    if (f == 0) f = 1;
    freq[s] = static_cast<std::uint16_t>(f);
    sum += static_cast<std::uint32_t>(f);
  }
  while (sum != kProbScale) {
    int best = -1;
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > (best < 0 ? 0 : freq[best])) best = s;
    }
    if (sum < kProbScale) {
      freq[best] = static_cast<std::uint16_t>(freq[best] + (kProbScale - sum));
      sum = kProbScale;
    } else {
      // Cannot underflow to 0: at most 256 present symbols, each >= 1,
      // so the largest is always > the remaining excess per iteration.
      const std::uint32_t cut =
          std::min<std::uint32_t>(freq[best] - 1u, sum - kProbScale);
      freq[best] = static_cast<std::uint16_t>(freq[best] - cut);
      sum -= cut;
    }
  }
}

EncSymbol MakeEncSymbol(std::uint32_t start, std::uint32_t f) {
  // ((L >> kProbBits) * 65536) * f with L = 1<<16: the largest pre-encode
  // state that keeps the post-encode state below 2^32.
  return {std::uint64_t{f} << 20, f, start};
}

// One encode step: renormalize (at most one 16-bit word — a 32-bit state
// shifted right by 16 is always below the minimum threshold 1<<20), then
// push the symbol onto the state. The renorm is branchless: the word is
// written unconditionally and the cursor advances only when it counts,
// because the spill/no-spill choice is data-dependent and mispredicts.
inline std::uint32_t EncStep(std::uint32_t x, const EncSymbol& sym,
                             std::uint16_t*& sp) {
  const bool renorm = x >= sym.x_max;
  *sp = static_cast<std::uint16_t>(x);
  sp += renorm;
  x = renorm ? x >> 16 : x;
  // Plain division, not a fixed-point reciprocal: the state reaches
  // min(freq << 20, 2^32) - 1, and the usual 32-bit reciprocal
  // ((x * rcp) >> 32) >> shift is exact only below 2^31.
  return ((x / sym.freq) << kProbBits) + x % sym.freq + sym.start;
}

}  // namespace

void Encode(util::ByteSpan raw, util::ByteBuffer& out) {
  const std::size_t n = raw.size();
  if (n == 0) return;

  // Four sub-histograms dodge the store-forwarding stall a skewed input
  // hits when consecutive bytes bump the same counter.
  std::uint64_t counts4[4][256] = {};
  std::size_t i4 = 0;
  for (; i4 + 4 <= n; i4 += 4) {
    ++counts4[0][raw[i4]];
    ++counts4[1][raw[i4 + 1]];
    ++counts4[2][raw[i4 + 2]];
    ++counts4[3][raw[i4 + 3]];
  }
  for (; i4 < n; ++i4) ++counts4[0][raw[i4]];
  std::uint64_t counts[256];
  for (int s = 0; s < 256; ++s) {
    counts[s] = counts4[0][s] + counts4[1][s] + counts4[2][s] + counts4[3][s];
  }
  std::uint16_t freq[256];
  NormalizeFreqs(counts, n, freq);

  EncSymbol syms[256];
  std::uint32_t cum = 0;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] != 0) syms[s] = MakeEncSymbol(cum, freq[s]);
    cum += freq[s];
  }

  for (int s = 0; s < 256; ++s) out.AppendU16(freq[s]);

  // ANS is LIFO: encode backward, spill renormalization words into a
  // scratch buffer, then emit them reversed so the decoder reads forward.
  // Symbol i belongs to state i & 1; walking backward two at a time keeps
  // the parity assignment and lets the two state updates overlap. Worst
  // case one spill word per symbol, so the scratch is sized to n + 1 and
  // written through a raw cursor (branchless EncStep writes one past the
  // live end).
  thread_local std::vector<std::uint16_t> spill;
  if (spill.size() < n + 1) spill.resize(n + 1);
  std::uint16_t* const sp_base = spill.data();
  std::uint16_t* sp = sp_base;
  std::uint32_t x0 = kStateLowerBound;
  std::uint32_t x1 = kStateLowerBound;
  std::size_t i = n;
  if (i & 1) {
    --i;
    x0 = EncStep(x0, syms[raw[i]], sp);  // even index when n is odd
  }
  while (i > 0) {
    x1 = EncStep(x1, syms[raw[i - 1]], sp);
    x0 = EncStep(x0, syms[raw[i - 2]], sp);
    i -= 2;
  }
  out.AppendU32(x0);
  out.AppendU32(x1);
  const std::size_t n_words = static_cast<std::size_t>(sp - sp_base);
  const std::size_t word_base = out.size();
  out.Resize(word_base + n_words * 2);
  std::uint8_t* wq = out.data() + word_base;
  for (std::size_t k = n_words; k-- > 0;) {
    std::memcpy(wq, sp_base + k, 2);
    wq += 2;
  }
}

void Decode(util::ByteSpan encoded, std::size_t raw_size,
            util::ByteBuffer& out) {
  if (raw_size == 0) {
    if (!encoded.empty()) {
      throw std::runtime_error("rans: trailing bytes after empty block");
    }
    return;
  }
  util::ByteReader reader(encoded);

  std::uint16_t freq[256];
  std::uint32_t cum[257];
  cum[0] = 0;
  std::uint32_t sum = 0;
  for (int s = 0; s < 256; ++s) {
    freq[s] = reader.ReadU16();
    sum += freq[s];
    cum[s + 1] = sum;
  }
  if (sum != kProbScale) {
    throw std::runtime_error("rans: frequency table does not sum to scale");
  }
  // slot -> symbol for the full 4096-wide scale (sum check above
  // guarantees every slot is covered exactly once).
  std::vector<std::uint8_t> slot_sym(kProbScale);
  for (int s = 0; s < 256; ++s) {
    for (std::uint32_t slot = cum[s]; slot < cum[s + 1]; ++slot) {
      slot_sym[slot] = static_cast<std::uint8_t>(s);
    }
  }

  std::uint32_t x[2];
  x[0] = reader.ReadU32();
  x[1] = reader.ReadU32();
  if (x[0] < kStateLowerBound || x[1] < kStateLowerBound) {
    throw std::runtime_error("rans: initial state below lower bound");
  }
  const std::size_t base = out.size();
  out.Resize(base + raw_size);
  std::uint8_t* dst = out.data() + base;
  for (std::size_t i = 0; i < raw_size; ++i) {
    std::uint32_t st = x[i & 1];
    const std::uint32_t slot = st & (kProbScale - 1);
    const std::uint8_t s = slot_sym[slot];
    dst[i] = s;
    st = freq[s] * (st >> kProbBits) + slot - cum[s];
    // At most one refill: the post-decode state is >= 16, so one 16-bit
    // word always lifts it back above L = 1<<16.
    if (st < kStateLowerBound) {
      st = (st << 16) | reader.ReadU16();  // throws on truncation
    }
    x[i & 1] = st;
  }
  if (x[0] != kStateLowerBound || x[1] != kStateLowerBound) {
    throw std::runtime_error("rans: corrupt stream (final state mismatch)");
  }
  if (!reader.AtEnd()) {
    throw std::runtime_error("rans: trailing bytes after stream");
  }
}

}  // namespace threelc::blockcodec::rans
