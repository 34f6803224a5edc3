#include "fault/fault_session.h"

namespace psnt::fault {

FaultSession::FaultSession(std::shared_ptr<const FaultInjector> injector,
                           std::uint32_t site_id,
                           core::EngineContext& context)
    : injector_(std::move(injector)), site_id_(site_id), context_(&context) {
  context_->set_word_hook(
      [this](core::ThermoWord& word) { active_.apply_word(word); });
}

FaultSession::~FaultSession() {
  context_->clear_word_hook();
  context_->set_rail_offset(0.0);
}

MeasureFaults FaultSession::roll(std::uint32_t sample, std::uint32_t attempt,
                                 std::size_t word_width) {
  if (!injector_) return MeasureFaults{};
  if (!sample_part_valid_ || sample_part_sample_ != sample ||
      sample_part_width_ != word_width) {
    sample_part_ = injector_->sample_faults(site_id_, sample, word_width);
    sample_part_sample_ = sample;
    sample_part_width_ = word_width;
    sample_part_valid_ = true;
  }
  return injector_->attempt_faults(sample_part_, site_id_, sample, attempt,
                                   word_width);
}

void FaultSession::arm(const MeasureFaults& faults) {
  active_ = faults;
  context_->set_rail_offset(-faults.droop_volts);
}

void FaultSession::disarm() {
  active_ = MeasureFaults{};
  context_->set_rail_offset(0.0);
}

}  // namespace psnt::fault
