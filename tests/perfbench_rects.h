// The query rectangles of perfbench's read workloads (perfbench/perfbench.cc,
// DrawQuery): the paper's area sweep (§5.3) at aspect ratios 0.6-1.7,
// placed uniformly inside the domain. The generator consumes the same
// draws as perfbench, including each query's two time draws, so on the
// perfbench city's domain a seed yields that run's pool (unshuffled).
#ifndef INNET_TESTS_PERFBENCH_RECTS_H_
#define INNET_TESTS_PERFBENCH_RECTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/rect.h"
#include "util/rng.h"

namespace innet {

inline std::vector<geometry::Rect> PerfbenchRects(const geometry::Rect& domain,
                                                  size_t count,
                                                  uint64_t seed) {
  constexpr double kAreaFractions[] = {0.01, 0.02, 0.04, 0.08, 0.16};
  util::Rng rng(seed);
  std::vector<geometry::Rect> rects;
  for (size_t i = 0; i < count; ++i) {
    double area = kAreaFractions[i % 5] * domain.Area();
    double width =
        std::min(std::sqrt(area * rng.Uniform(0.6, 1.7)), domain.Width());
    double height = std::min(area / width, domain.Height());
    double x = rng.Uniform(domain.min_x, domain.max_x - width);
    double y = rng.Uniform(domain.min_y, domain.max_y - height);
    rects.emplace_back(x, y, x + width, y + height);
    rng.Uniform();  // The query's length and start time.
    rng.Uniform();
  }
  return rects;
}

}  // namespace innet

#endif  // INNET_TESTS_PERFBENCH_RECTS_H_
