// Sampling policies: the paper's Adaptive Sampling (Algorithm 1) and the
// Fix Rate Sampling baseline it is evaluated against (Section VI-A1).
//
// Both run in the normal-world Adapter. On every fresh (unauthenticated)
// GPS update read via ReadGPS(), the policy decides whether to pay for a
// GetGPSAuth() round trip into the TEE.
#pragma once

#include <memory>
#include <vector>

#include "core/sufficiency.h"
#include "geo/circle.h"
#include "geo/geopoint.h"
#include "gps/fix.h"

namespace alidrone::core {

/// Decision interface shared by both samplers.
class SamplingPolicy {
 public:
  virtual ~SamplingPolicy() = default;

  /// Called for every fresh GPS update at the receiver rate R.
  /// Return true to call GetGPSAuth() and record the sample in the PoA.
  virtual bool should_authenticate(const gps::GpsFix& fix) = 0;

  /// Notification that `fix` was authenticated and recorded.
  virtual void on_recorded(const gps::GpsFix& fix) = 0;

  virtual std::string name() const = 0;
};

/// Algorithm 1. Records a sample when:
///   (2)  D1 + D2 >= v_max (t2 - t1)        -- alibi still sufficient now
///   (3)  D1 + D2 <  v_max (t2 - t1 + 2/R)  -- it would stop being by the
///                                             update after next
/// plus two protocol-level guards the algorithm's text implies: the first
/// fix of a flight is always recorded (S_{k_0} = S_0), and a pair that has
/// already gone insufficient (condition (2) false, e.g. after a missed GPS
/// update) is recorded immediately as a best effort — this is how the one
/// adaptive-sampling insufficiency in the paper's residential study ends
/// up inside the PoA at all.
class AdaptiveSampler final : public SamplingPolicy {
 public:
  /// `local_zones` in the frame; `update_rate_hz` is the receiver rate R.
  AdaptiveSampler(geo::LocalFrame frame, std::vector<geo::Circle> local_zones,
                  double vmax_mps, double update_rate_hz);

  bool should_authenticate(const gps::GpsFix& fix) override;
  void on_recorded(const gps::GpsFix& fix) override;
  std::string name() const override { return "adaptive"; }

  /// Number of condition evaluations (for the cost model).
  std::uint64_t checks() const { return checks_; }

 private:
  geo::LocalFrame frame_;
  FocalPairKernel<geo::Circle> kernel_;  ///< anchored at the last recorded fix
  double vmax_;
  double update_period_;
  bool has_last_ = false;
  double last_time_ = 0.0;
  std::uint64_t checks_ = 0;
};

/// Fix Rate Sampling at `rate_hz`: after each recorded sample the thread
/// sleeps for one period, then waits for the first fresh measurement — so
/// actual sample times snap to GPS update instants and the effective rate
/// can be slightly below the setting (Section VI-A1).
class FixedRateSampler final : public SamplingPolicy {
 public:
  FixedRateSampler(double rate_hz, double start_time);

  bool should_authenticate(const gps::GpsFix& fix) override;
  void on_recorded(const gps::GpsFix& fix) override;
  std::string name() const override;

 private:
  double period_;
  double next_wake_;
};

}  // namespace alidrone::core
