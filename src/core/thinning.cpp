#include "core/thinning.h"

namespace alidrone::core {

ThinningResult thin_samples(const std::vector<gps::GpsFix>& samples,
                            const std::vector<geo::GeoZone>& zones,
                            double vmax_mps) {
  ThinningResult result;
  result.original_count = samples.size();
  if (samples.empty()) return result;

  const geo::LocalFrame frame(samples.front().position);
  FocalPairKernel<geo::Circle> kernel(geo::to_local(frame, zones));

  result.input_sufficient =
      check_sufficiency(samples, zones, vmax_mps).sufficient;

  // Greedy argmax: from the last kept sample i, jump to the largest j
  // such that the pair (i, j) is sufficient. If even (i, i+1) is not —
  // the trace itself is insufficient there — keep the adjacent sample so
  // the violation stays visible.
  result.kept_indices.push_back(0);
  std::size_t i = 0;
  while (i + 1 < samples.size()) {
    std::size_t best = i + 1;
    kernel.anchor(frame.to_local(samples[i].position));
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      const double allowed = vmax_mps * (samples[j].unix_time - samples[i].unix_time);
      const auto pair = kernel.probe(frame.to_local(samples[j].position));
      if (!kernel.insufficient(pair, allowed)) best = j;
      // No early break: sufficiency is not monotone in j when the drone
      // turns back toward a zone, and candidates are cheap to test.
    }
    result.kept_indices.push_back(best);
    i = best;
  }

  std::vector<gps::GpsFix> kept;
  kept.reserve(result.kept_indices.size());
  for (const std::size_t k : result.kept_indices) kept.push_back(samples[k]);
  result.output_sufficient = check_sufficiency(kept, zones, vmax_mps).sufficient;
  return result;
}

ProofOfAlibi thin_poa(const ProofOfAlibi& poa,
                      const std::vector<geo::GeoZone>& zones, double vmax_mps) {
  if (poa.mode != AuthMode::kRsaPerSample || poa.encrypted) return poa;

  std::vector<gps::GpsFix> fixes;
  fixes.reserve(poa.samples.size());
  for (const SignedSample& s : poa.samples) {
    const auto f = s.fix();
    if (!f) return poa;  // undecodable: leave untouched
    fixes.push_back(*f);
  }

  const ThinningResult thinned = thin_samples(fixes, zones, vmax_mps);
  ProofOfAlibi out = poa;
  out.samples.clear();
  out.samples.reserve(thinned.kept_indices.size());
  for (const std::size_t k : thinned.kept_indices) {
    out.samples.push_back(poa.samples[k]);
  }
  return out;
}

}  // namespace alidrone::core
