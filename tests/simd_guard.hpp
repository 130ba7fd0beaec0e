// Pins the SIMD dispatch level for one scope and restores the level that
// was active before it. set_active_for_testing() returns the level it
// installed, not the previous one, so the guard reads active() first.
#pragma once

#include "core/cpu_features.hpp"

namespace gpucnn {

class SimdGuard {
 public:
  explicit SimdGuard(simd::Level level) : previous_(simd::active()) {
    simd::set_active_for_testing(level);
  }
  ~SimdGuard() { simd::set_active_for_testing(previous_); }
  SimdGuard(const SimdGuard&) = delete;
  SimdGuard& operator=(const SimdGuard&) = delete;

 private:
  simd::Level previous_;
};

}  // namespace gpucnn
