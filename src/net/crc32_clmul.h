// Carry-less-multiply fold for net::crc32 (x86 PCLMULQDQ).
//
// crc32_clmul.cpp is the only TU compiled with the ISA flag; it carries the
// fold when the build's PSNT_SIMD backend is avx2, and a runtime cpuid check
// keeps it off a CPU without PCLMULQDQ. Every other build or host folds
// nothing and net::crc32 stays on its slicing-by-8 tables.
#pragma once

#include <cstddef>
#include <cstdint>

namespace psnt::net {

// Advances the running (pre-inverted) reflected CRC32 `state` over the
// longest 16-byte multiple prefix of `data` and returns its length, or
// returns 0 and leaves `state` alone when `size` is under 64 bytes or the
// fold is unavailable. The caller finishes the remaining bytes.
std::size_t crc32_clmul_prefix(std::uint32_t& state, const std::uint8_t* data,
                               std::size_t size);

}  // namespace psnt::net
