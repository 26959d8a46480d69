#include "core/sampler.h"

#include <cstdio>

namespace alidrone::core {

AdaptiveSampler::AdaptiveSampler(geo::LocalFrame frame,
                                 std::vector<geo::Circle> local_zones,
                                 double vmax_mps, double update_rate_hz)
    : frame_(frame),
      kernel_(std::move(local_zones)),
      vmax_(vmax_mps),
      update_period_(1.0 / update_rate_hz) {}

bool AdaptiveSampler::should_authenticate(const gps::GpsFix& fix) {
  ++checks_;
  if (!has_last_) return true;  // S_0: anchor the alibi

  // FindNearestZone: nearest by focal sum D1 + D2, since that is the
  // binding constraint in conditions (2)/(3). Without zones neither holds.
  const auto pair = kernel_.probe(frame_.to_local(fix.position));

  const double elapsed = fix.unix_time - last_time_;
  const bool sufficient_now = !kernel_.insufficient(pair, vmax_ * elapsed);  // (2)
  const bool urgent =
      kernel_.insufficient(pair, vmax_ * (elapsed + 2.0 * update_period_));  // (3)
  if (!sufficient_now) return true;  // already late: record best effort
  return urgent;
}

void AdaptiveSampler::on_recorded(const gps::GpsFix& fix) {
  has_last_ = true;
  kernel_.anchor(frame_.to_local(fix.position));
  last_time_ = fix.unix_time;
}

FixedRateSampler::FixedRateSampler(double rate_hz, double start_time)
    : period_(1.0 / rate_hz), next_wake_(start_time) {}

bool FixedRateSampler::should_authenticate(const gps::GpsFix& fix) {
  // Awake iff the wake time has passed; the first fresh update then gets
  // authenticated. Tolerance sized for unix-epoch double magnitudes.
  return fix.unix_time >= next_wake_ - 1e-6;
}

void FixedRateSampler::on_recorded(const gps::GpsFix& fix) {
  // Sleep one period from the moment the sample was taken.
  next_wake_ = fix.unix_time + period_;
}

std::string FixedRateSampler::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fixed-%.3gHz", 1.0 / period_);
  return buf;
}

}  // namespace alidrone::core
