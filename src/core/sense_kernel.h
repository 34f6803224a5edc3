// BatchedSenseKernel: amortized SENSE evaluation for repeated measures.
//
// A behavioral measure spends almost all of its time in two places:
//
//  1. decode(): every call re-derives the converter ladder via
//     sorted_thresholds(skew), which runs one Brent root-find per cell —
//     7 solves per measure even though only 8 delay codes (8 skews) exist.
//  2. measure(): every cell independently evaluates the alpha-power delay,
//     repeating the same pow(overdrive, alpha) because all cells of a
//     paper-style array share one inverter model.
//
// The kernel fixes both without changing a single output bit:
//
//  * Per-code ladder cache. sorted_thresholds(skew) is called once per
//    distinct delay code and memoized; repeated codes become a table lookup.
//    The cached vector is byte-for-byte the one SensorArray would have
//    produced, so decode() results are bit-identical.
//  * Shared-drive fast path. When every cell uses the same inverter
//    parameters, i_drive = K * pow(V - Vt, alpha) is hoisted out of the cell
//    loop and each DS arrival computed as c_total[i] * V / i_drive — the
//    exact operand values and operation order of AlphaPowerDelayModel::delay,
//    hence bit-identical IEEE results. The fast path is a precondition, not
//    a fallback: callers (the BehavioralEngine) query fast_path() once per
//    sense and route mismatched arrays (per-cell inverter variation) and
//    saturated supplies to SensorArray::measure themselves, so the kernel
//    never silently degrades to the slow path.
//  * Vectorized batch SENSE (measure_batch, DESIGN.md §14). The per-cell
//    arrival-vs-strobe test is inverted once per (DelayCode, skew) into a
//    per-cell *firing-threshold voltage* — the supply at which the scalar
//    predicate flips — so sensing a batch of N supplies becomes comparing N
//    doubles against 7 broadcast thresholds (simd::sense_compare). Each
//    threshold is bisected against the exact scalar floating-point predicate
//    and carried with a ±1e-9 V guard band: any sample inside a guard band
//    (where FP wobble could disagree with the compare) or outside the
//    fast-path voltage window is flagged back to the caller for the scalar
//    reference path, which is what makes the compare path bit-identical, not
//    just approximately right.
//
// The kernel holds only value data (no pointer back to its array): the owning
// NoiseThermometer is moved by value through make_paper_thermometer and
// PsnScanChain::attach_site, and a self-referential cache would dangle. The
// array is therefore passed into every call; every entry point checks —
// always, not just in debug builds — that the passed array has the width the
// kernel was built from, because the scalar and batch call paths now share
// the cached ladders and a mismatched array would silently decode against
// the wrong thresholds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/measurement.h"
#include "core/sensor_array.h"

namespace psnt::core {

class BatchedSenseKernel {
 public:
  BatchedSenseKernel() = default;
  explicit BatchedSenseKernel(const SensorArray& array);

  // True when the shared-drive fast path applies to this supply: uniform
  // inverter parameters and v_eff above the inverter threshold (below it the
  // delay saturates and the reference path must model it).
  [[nodiscard]] bool fast_path(Volt v_eff) const {
    return uniform_ && v_eff.value() - v_threshold_ > 1e-9;
  }

  // Bit-identical equivalent of array.measure(v_eff, skew). Precondition:
  // fast_path(v_eff) — callers route other supplies to the array directly.
  [[nodiscard]] ThermoWord measure(const SensorArray& array, Volt v_eff,
                                   Picoseconds skew) const;

  // --- vectorized batch SENSE -------------------------------------------
  // True when the inverted-threshold compare path can serve this array at
  // all: uniform inverter parameters, alpha >= 1 (the DS arrival is then
  // monotone in the supply, so "fires" is a single threshold crossing), no
  // deep-metastability resolver on any cell's FF (sampling must be a pure
  // function of the margin), and the build's SIMD backend usable on this
  // CPU. Fixed at construction.
  [[nodiscard]] bool vectorizable() const { return vector_ok_; }

  // Vectorized equivalent of sensing each sample through the engine's
  // scalar selection (fast_path() ? measure() : array.measure()): for each
  // k in [0, n), words[k] is the thermometer word for supply v_eff[k] volts.
  // Samples the compare ladder cannot settle bit-exactly — voltage inside a
  // firing threshold's ±1e-9 V guard band, at the fast_path() saturation
  // boundary, beyond the ladder window, or NaN — are NOT sensed: their
  // need_scalar[k] is set and words[k] left untouched for the caller to
  // route through the scalar reference path. Returns false without touching
  // the outputs when vectorizable() is false. Builds/reuses the per-code
  // firing ladder, so the first call per code pays the threshold bisection.
  bool measure_batch(const SensorArray& array, const double* v_eff_volts,
                     std::size_t n, DelayCode code, Picoseconds skew,
                     ThermoWord* words, std::uint8_t* need_scalar);

  // Forces the firing-ladder solve for `code` now (it is otherwise lazy on
  // the first measure_batch with that code): a scan grid prewarms one
  // kernel, then shares the solved tables across its sites. No-op when the
  // array is not vectorizable.
  void prewarm(DelayCode code, Picoseconds skew);

  // Adopts every per-code cache `other` has already solved — the firing
  // compare ladders (shared, not copied: they are immutable) and the decode
  // threshold ladders — when both kernels were built over value-identical
  // arrays (the per-site engines of a scan grid all wrap the same
  // calibrated array). The caches are pure functions of the array
  // parameters, so an adopted table holds the exact doubles this kernel's
  // own solve would have produced. Returns the number of per-code entries
  // adopted; 0 (and no state change) when any array parameter differs in
  // any bit.
  std::size_t adopt_ladders(const BatchedSenseKernel& other);

  // Batch telemetry: samples served by the compare path vs flagged back to
  // the scalar path, since construction. Lets tests and benches assert the
  // vector path actually ran.
  [[nodiscard]] std::uint64_t batch_vector_samples() const {
    return batch_vector_;
  }
  [[nodiscard]] std::uint64_t batch_scalar_fallbacks() const {
    return batch_scalar_;
  }

  // Cached equivalent of array.sorted_thresholds(skew), keyed by delay code.
  [[nodiscard]] const std::vector<Volt>& sorted_thresholds(
      const SensorArray& array, DelayCode code, Picoseconds skew);

  // Bit-identical equivalents of the SensorArray decode family, using the
  // cached ladder for the given code.
  [[nodiscard]] VoltageBin decode(const SensorArray& array,
                                  const ThermoWord& word, DelayCode code,
                                  Picoseconds skew);
  [[nodiscard]] VoltageBin decode_gnd(const SensorArray& array,
                                      const ThermoWord& word, DelayCode code,
                                      Picoseconds skew, Volt v_nominal);
  [[nodiscard]] DynamicRange dynamic_range(const SensorArray& array,
                                           DelayCode code, Picoseconds skew);

  // True when the shared-drive fast path applies (uniform inverter params).
  [[nodiscard]] bool uniform() const { return uniform_; }
  // Number of ladder root-solve passes performed so far (one per distinct
  // code); exposed so tests can assert the cache actually amortizes.
  [[nodiscard]] std::size_t ladder_solves() const { return ladder_solves_; }

 private:
  struct CodeCache {
    bool valid = false;
    Picoseconds skew{0.0};
    std::vector<Volt> ladder;
  };

  // Inverted compare ladder for one delay code: per-cell firing-threshold
  // voltages bracketed by a guard band (lo[i] < B_i < hi[i]). The bit is
  // taken from the hi compare; landing between the compares flags the
  // sample for scalar fallback. Immutable once solved, so kernels that
  // adopt it share one copy.
  struct FiringLadder {
    Picoseconds skew{0.0};
    std::vector<double> lo;
    std::vector<double> hi;
  };

  void check_same_array(const SensorArray& array) const;
  [[nodiscard]] bool cell_fires(double v_eff_volts, std::size_t cell,
                                double deadline_ps) const;
  const FiringLadder& firing_ladder(DelayCode code, Picoseconds skew);

  bool uniform_ = false;
  bool vector_ok_ = false;
  double drive_k_pf_per_ps_ = 0.0;
  double alpha_ = 0.0;
  double v_threshold_ = 0.0;
  // Open voltage window the compare ladder covers; outside it samples fall
  // back to the scalar path (below: fast_path() saturation boundary; above:
  // the bisection bracket cap).
  double win_lo_volts_ = 0.0;
  double win_hi_volts_ = 0.0;
  std::vector<double> c_total_pf_;   // per-cell c_load + c_intrinsic
  std::vector<double> t_setup_ps_;   // per-cell FF setup time
  std::array<CodeCache, DelayCode::kCount> codes_;
  std::array<std::shared_ptr<const FiringLadder>, DelayCode::kCount> firing_;
  std::vector<std::uint32_t> word_scratch_;  // reused across measure_batch
  std::size_t ladder_solves_ = 0;
  std::uint64_t batch_vector_ = 0;
  std::uint64_t batch_scalar_ = 0;
};

}  // namespace psnt::core
