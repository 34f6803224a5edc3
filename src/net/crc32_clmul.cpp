#include "net/crc32_clmul.h"

#if defined(PSNT_CRC_CLMUL)
#include <immintrin.h>
#endif

namespace psnt::net {

#if defined(PSNT_CRC_CLMUL)

namespace {

bool cpu_has_pclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

// Folds `size` bytes (size >= 64, size % 16 == 0) into `state`: four 128-bit
// lanes fold 64 bytes per step, collapse to one lane, fold 16 bytes per
// step, then reduce 128 → 64 → 32 bits with a Barrett step. The constants
// are the bit-reflected x^k mod P(x) values of Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009), for
// the IEEE polynomial — the same ones zlib's folding CRC uses.
std::uint32_t fold(std::uint32_t state, const std::uint8_t* data,
                   std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // x ← x·k (high and low halves) ⊕ next.
  const auto fold16 = [](__m128i x, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                       _mm_clmulepi64_si128(x, k, 0x00)),
                         next);
  };

  __m128i x1 = _mm_xor_si128(load(data),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = fold16(x1, k1k2, load(data));
    x2 = fold16(x2, k1k2, load(data + 16));
    x3 = fold16(x3, k1k2, load(data + 32));
    x4 = fold16(x4, k1k2, load(data + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = fold16(x1, k3k4, load(data));
  }

  // 128 → 64 bits.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2r);

  // Barrett reduction to 32 bits.
  x2r = _mm_and_si128(x1, low32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
  x2r = _mm_and_si128(x2r, low32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

}  // namespace

std::size_t crc32_clmul_prefix(std::uint32_t& state, const std::uint8_t* data,
                               std::size_t size) {
  if (size < 64 || !cpu_has_pclmul()) return 0;
  const std::size_t bulk = size & ~std::size_t{15};
  state = fold(state, data, bulk);
  return bulk;
}

#else  // no PCLMULQDQ fold in this build (PSNT_SIMD=off, or not x86)

std::size_t crc32_clmul_prefix(std::uint32_t&, const std::uint8_t*,
                               std::size_t) {
  return 0;
}

#endif

}  // namespace psnt::net
