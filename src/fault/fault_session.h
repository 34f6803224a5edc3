// FaultSession: the single binding between a FaultInjector and a measurement
// engine.
//
// The injector itself is a pure model (fault_injector.h): it decides which
// faults strike a (site, sample, attempt) coordinate but touches nothing.
// A FaultSession is the ONE place those decisions reach an engine, through
// the core::EngineContext hook surface:
//
//   * at construction it installs the context word hook (stuck-bit /
//     metastable-flip corruption of the raw sensed word). The hook runs
//     post-capture, pre-ENC, on every path — including the raw-sample
//     streaming pipeline, whose core::RawSample carries the hooked word, so
//     fault semantics are unchanged by where the encode later happens;
//   * arm(faults) publishes one attempt's fault state — the word-corruption
//     fields for the hook and the rail offset (−droop_volts) read by the
//     engine's ContextOffsetRail view;
//   * disarm() clears both after the attempt.
//
// No other code installs engine hooks (grep for set_word_hook /
// set_rail_offset outside this file and the engine layer should come up
// empty). Sessions are engine-scoped: create one per site engine, after the
// engine, and destroy it first (the destructor detaches the hook).
#pragma once

#include <cstdint>
#include <memory>

#include "core/measure_engine.h"
#include "fault/fault_injector.h"

namespace psnt::fault {

class FaultSession {
 public:
  // `injector` may be null (a disarmed session: roll() returns no faults and
  // the word hook applies a default MeasureFaults, which is the identity).
  FaultSession(std::shared_ptr<const FaultInjector> injector,
               std::uint32_t site_id, core::EngineContext& context);
  ~FaultSession();

  // The hook closes over `this`; the session must stay put.
  FaultSession(const FaultSession&) = delete;
  FaultSession& operator=(const FaultSession&) = delete;

  [[nodiscard]] std::uint32_t site_id() const { return site_id_; }

  // The injector's decision for one measure attempt of this site. The
  // sample part (FaultInjector::sample_faults) is rolled once per
  // (sample, word_width) and reused across that sample's retries and votes.
  [[nodiscard]] MeasureFaults roll(std::uint32_t sample, std::uint32_t attempt,
                                   std::size_t word_width);

  // Publishes `faults` to the engine context for the next measure: the word
  // hook corrupts with them and the rail offset sags by droop_volts.
  void arm(const MeasureFaults& faults);
  void disarm();

 private:
  std::shared_ptr<const FaultInjector> injector_;
  std::uint32_t site_id_ = 0;
  core::EngineContext* context_ = nullptr;
  MeasureFaults active_;
  // The last sample part roll() computed, and the coordinate it is for.
  MeasureFaults sample_part_;
  std::uint32_t sample_part_sample_ = 0;
  std::size_t sample_part_width_ = 0;
  bool sample_part_valid_ = false;
};

}  // namespace psnt::fault
