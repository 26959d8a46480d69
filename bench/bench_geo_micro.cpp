// Ablation A4: geometry microbenchmarks — the smallest-enclosing-circle
// registration cost (Section VII-B2 claims linear time; Welzl is expected
// linear) and the per-update cost of the alibi geometry primitives that
// Algorithm 1 and the verifier run constantly.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/sufficiency.h"
#include "core/zone_index.h"
#include "crypto/random.h"
#include "geo/ellipse.h"
#include "geo/ellipsoid.h"
#include "geo/geopoint.h"
#include "geo/polygon.h"

namespace alidrone::geo {
namespace {

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  crypto::DeterministicRandom rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform_double() * 1000.0, rng.uniform_double() * 1000.0});
  }
  return pts;
}

void BM_SmallestEnclosingCircle(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smallest_enclosing_circle(pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SmallestEnclosingCircle)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_FocalDisjointTest(benchmark::State& state) {
  const TravelEllipse e({0, 0}, {100, 0}, 300.0);
  const Circle z{{400, 150}, 50.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.focal_test_disjoint(z));
  }
}
BENCHMARK(BM_FocalDisjointTest);

void BM_ExactDisjointTest(benchmark::State& state) {
  const TravelEllipse e({0, 0}, {100, 0}, 300.0);
  const Circle z{{400, 150}, 50.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.exactly_disjoint(z));
  }
}
BENCHMARK(BM_ExactDisjointTest);

void BM_NearestZoneScan(benchmark::State& state) {
  // The FindNearestZone step of Algorithm 1 over a residential-sized list:
  // one probe of the focal-pair kernel against an anchored sample.
  const auto centers = random_points(static_cast<std::size_t>(state.range(0)), 13);
  std::vector<Circle> zones;
  zones.reserve(centers.size());
  for (const Vec2 c : centers) zones.push_back({c, 6.1});
  core::FocalPairKernel kernel(std::move(zones));
  kernel.anchor({500, 500});
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.probe({501, 500}).focal_sum_m);
  }
}
BENCHMARK(BM_NearestZoneScan)->Arg(94)->Arg(1000);

void BM_Ellipsoid3dExactTest(benchmark::State& state) {
  const TravelEllipsoid e({0, 0, 40}, {100, 0, 60}, 300.0);
  const Cylinder z{{400, 150}, 50.0, 120.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.exactly_disjoint(z));
  }
}
BENCHMARK(BM_Ellipsoid3dExactTest);

/// ZoneIndex hot paths at B4UFLY-ish scale (hash-grid storage). Arg =
/// registered zone count.
core::ZoneIndex build_zone_index(std::size_t n_zones) {
  crypto::DeterministicRandom rng(std::uint64_t{21});
  core::ZoneIndex index;
  index.reserve(n_zones);
  for (std::size_t i = 0; i < n_zones; ++i) {
    GeoZone z;
    z.center = {35.0 + 10.0 * rng.uniform_double(),
                -95.0 + 10.0 * rng.uniform_double()};
    z.radius_m = 30.0 + 200.0 * rng.uniform_double();
    index.insert("zone-" + std::to_string(i), z);
  }
  return index;
}

void BM_ZoneIndexInsert(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::ZoneIndex index = build_zone_index(n);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ZoneIndexInsert)->Arg(1000)->Arg(10000);

void BM_ZoneIndexQueryRect(benchmark::State& state) {
  const core::ZoneIndex index =
      build_zone_index(static_cast<std::size_t>(state.range(0)));
  const core::QueryRect rect{{40.0, -90.5}, {40.5, -90.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query_rect(rect));
  }
}
BENCHMARK(BM_ZoneIndexQueryRect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ZoneIndexNearest(benchmark::State& state) {
  const core::ZoneIndex index =
      build_zone_index(static_cast<std::size_t>(state.range(0)));
  const GeoPoint p{40.1164, -88.2434};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.nearest(p));
  }
}
BENCHMARK(BM_ZoneIndexNearest)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HaversineDistance(benchmark::State& state) {
  const GeoPoint a{40.1164, -88.2434};
  const GeoPoint b{40.0393, -88.2781};
  for (auto _ : state) {
    benchmark::DoNotOptimize(haversine_distance(a, b));
  }
}
BENCHMARK(BM_HaversineDistance);

}  // namespace
}  // namespace alidrone::geo

BENCHMARK_MAIN();
