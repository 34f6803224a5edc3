#include "core/measurement.h"

#include <sstream>

namespace psnt::core {

std::string DelayCode::to_string() const {
  std::string s(3, '0');
  for (int b = 0; b < 3; ++b) {
    if (value_ & (1u << b)) s[static_cast<std::size_t>(2 - b)] = '1';
  }
  return s;
}

const char* to_string(SenseTarget target) {
  switch (target) {
    case SenseTarget::kVdd:
      return "VDD";
    case SenseTarget::kGnd:
      return "GND";
  }
  return "?";
}

Volt VoltageBin::estimate() const {
  if (lo && hi) return Volt{0.5 * (lo->value() + hi->value())};
  if (lo) return *lo;
  if (hi) return *hi;
  return Volt{0.0};
}

std::string VoltageBin::to_string() const {
  std::ostringstream os;
  if (lo && hi) {
    os << "[" << lo->value() << " V, " << hi->value() << " V)";
  } else if (hi) {
    os << "below " << hi->value() << " V";
  } else if (lo) {
    os << "at or above " << lo->value() << " V";
  } else {
    os << "(unbounded)";
  }
  return os.str();
}

}  // namespace psnt::core
