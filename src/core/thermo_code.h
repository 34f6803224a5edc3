// Thermometer output words (the OUT-i vector of Fig. 1 right).
//
// Bit i corresponds to sensor cell i; cells are ordered by ascending failure
// threshold (ascending load capacitance). Bit = 1 means the cell sampled
// correctly ("no error"): the measured voltage is at or above that cell's
// threshold. A physically consistent word is therefore a contiguous run of
// ones from bit 0 — exactly a flash-ADC thermometer code. Metastability and
// within-die mismatch can produce "bubbles"; the encoder can repair them by
// population count, the same policy flash converters use.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace psnt::core {

class ThermoWord {
 public:
  static constexpr std::size_t kMaxBits = 32;

  ThermoWord() = default;
  ThermoWord(std::uint32_t bits, std::size_t width);

  // Canonical thermometer word with `ones` low bits set.
  static ThermoWord of_count(std::size_t ones, std::size_t width);
  // Parses "0011111" (MSB = highest-threshold cell, as printed in the paper).
  static ThermoWord from_string(const std::string& s);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] bool bit(std::size_t i) const;
  void set_bit(std::size_t i, bool value);

  // Number of correct cells — the thermometer reading. Inline, with the
  // common case first: a bubble-free word's count is its bit width (one
  // bit-scan), while std::popcount is a library call on x86-64 builds
  // without POPCNT — the per-sample decode and ENC paths call this per word.
  [[nodiscard]] std::size_t count_ones() const {
    if ((bits_ & (bits_ + 1u)) == 0) {  // ones contiguous from bit 0
      return static_cast<std::size_t>(std::bit_width(bits_));
    }
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  // True when the ones form a contiguous run starting at bit 0 (includes the
  // all-zeros and all-ones words).
  [[nodiscard]] bool is_valid_thermometer() const;
  // Number of positions that differ from the canonical word with the same
  // population count (0 for a valid thermometer word).
  [[nodiscard]] std::size_t bubble_error_count() const;
  // Canonical word with this word's population count.
  [[nodiscard]] ThermoWord bubble_corrected() const;

  [[nodiscard]] bool all_ones() const { return count_ones() == width_; }
  [[nodiscard]] bool all_zeros() const { return count_ones() == 0; }

  // Paper rendering: highest-threshold cell first, e.g. "0011111".
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::uint32_t raw() const { return bits_; }

  friend bool operator==(const ThermoWord& a, const ThermoWord& b) {
    return a.width_ == b.width_ && a.bits_ == b.bits_;
  }

 private:
  std::uint32_t bits_ = 0;
  std::size_t width_ = 0;
};

}  // namespace psnt::core
