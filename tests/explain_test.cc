// EXPLAIN provenance.
//
// Pins that explain output is deterministic — byte-identical JSON across
// runs and between the serial and 8-worker engines, cache-cold and -warm —
// and that its resolution fields describe the faces the answer used.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/workload.h"
#include "obs/explain.h"
#include "runtime/batch_query_engine.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet {
namespace {

using core::BoundMode;
using core::CountKind;
using core::RangeQuery;

core::FrameworkOptions SmallOptions(uint64_t seed) {
  core::FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 400;
  options.seed = seed;
  return options;
}

class ExplainFixture : public ::testing::Test {
 protected:
  ExplainFixture() : framework_(SmallOptions(17)) {
    core::WorkloadOptions wo;
    wo.area_fraction = 0.08;
    wo.horizon = framework_.Horizon();
    util::Rng rng = framework_.ForkRng();
    // Distinct regions only: a cold pass then misses the cache on every
    // query and a warm pass hits on every query, in any engine — keeping
    // even the cache_hit flag deterministic under 8 workers. (Intra-batch
    // duplicates would race two concurrent misses for the same key.)
    queries_ = GenerateWorkload(framework_.network(), wo, 30, rng);

    sampling::KdTreeSampler sampler;
    util::Rng drng = framework_.ForkRng();
    deployment_ = std::make_unique<core::Deployment>(
        framework_.DeployWithSampler(sampler,
                                     framework_.network().NumSensors() / 4,
                                     core::DeploymentOptions{}, drng));
  }

  std::vector<std::string> ExplainJson(runtime::BatchQueryEngine& engine,
                                       CountKind kind, BoundMode bound) {
    std::vector<obs::ExplainRecord> explains;
    engine.AnswerBatchExplained(queries_, kind, bound, &explains);
    std::vector<std::string> json;
    json.reserve(explains.size());
    for (const obs::ExplainRecord& record : explains) {
      json.push_back(record.ToJson());
    }
    return json;
  }

  core::Framework framework_;
  std::vector<RangeQuery> queries_;
  std::unique_ptr<core::Deployment> deployment_;
};

// Same batch, serial vs 8 workers, cold vs warm: identical JSON.
TEST_F(ExplainFixture, ExplainDeterministicAcrossEnginesAndCache) {
  runtime::BatchEngineOptions serial_options;
  serial_options.num_threads = 0;
  runtime::BatchEngineOptions parallel_options;
  parallel_options.num_threads = 8;
  runtime::BatchQueryEngine serial(deployment_->graph(), deployment_->store(),
                                   serial_options);
  runtime::BatchQueryEngine parallel(deployment_->graph(),
                                     deployment_->store(), parallel_options);

  for (BoundMode bound : {BoundMode::kLower, BoundMode::kUpper}) {
    std::vector<std::string> cold =
        ExplainJson(serial, CountKind::kStatic, bound);
    std::vector<std::string> warm =
        ExplainJson(serial, CountKind::kStatic, bound);
    std::vector<std::string> par_cold =
        ExplainJson(parallel, CountKind::kStatic, bound);
    std::vector<std::string> par_warm =
        ExplainJson(parallel, CountKind::kStatic, bound);
    ASSERT_EQ(cold.size(), queries_.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(par_cold[i], cold[i]) << "query " << i << " (cold)";
      EXPECT_EQ(par_warm[i], warm[i]) << "query " << i << " (warm)";
    }
  }
}

// A warm hit must explain identically to the fresh resolution except for
// the cache_hit flag itself.
TEST_F(ExplainFixture, CacheHitExplainsLikeFreshResolution) {
  runtime::BatchEngineOptions options;
  options.num_threads = 0;
  runtime::BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                                   options);
  std::vector<obs::ExplainRecord> cold;
  std::vector<obs::ExplainRecord> warm;
  engine.AnswerBatchExplained(queries_, CountKind::kStatic, BoundMode::kLower,
                              &cold);
  engine.AnswerBatchExplained(queries_, CountKind::kStatic, BoundMode::kLower,
                              &warm);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(warm[i].cache_hit) << "query " << i;
    warm[i].cache_hit = cold[i].cache_hit;
    EXPECT_EQ(warm[i].ToJson(), cold[i].ToJson()) << "query " << i;
  }
}

// Explain fields are internally consistent with the deployment.
TEST_F(ExplainFixture, ExplainFieldsMatchDeployment) {
  runtime::BatchEngineOptions options;
  runtime::BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                                   options);
  std::vector<obs::ExplainRecord> explains;
  std::vector<core::QueryAnswer> answers = engine.AnswerBatchExplained(
      queries_, CountKind::kStatic, BoundMode::kLower, &explains);
  const core::SampledGraph& sampled = deployment_->graph();
  for (size_t i = 0; i < explains.size(); ++i) {
    const obs::ExplainRecord& e = explains[i];
    EXPECT_EQ(e.kind, "static");
    EXPECT_EQ(e.bound, "lower");
    EXPECT_EQ(e.region_cells, queries_[i].junctions.size());
    EXPECT_EQ(e.missed, answers[i].missed);
    EXPECT_DOUBLE_EQ(e.answer, answers[i].estimate);
    EXPECT_EQ(e.boundary_edges, answers[i].edges_accessed);
    EXPECT_TRUE(std::is_sorted(e.faces.begin(), e.faces.end()));
    size_t cells = 0;
    for (uint32_t face : e.faces) {
      ASSERT_LT(face, sampled.NumFaces());
      cells += sampled.FaceSize(face);
    }
    EXPECT_EQ(e.resolved_cells, cells);
    // Lower-bound resolutions cover a subset of the region.
    EXPECT_LE(e.resolved_cells, e.region_cells);
    if (e.region_cells > 0) {
      EXPECT_NEAR(e.deadspace_fraction,
                  static_cast<double>(e.region_cells - e.resolved_cells) /
                      static_cast<double>(e.region_cells),
                  1e-12);
    }
    EXPECT_EQ(e.store, "exact");
  }
}

}  // namespace
}  // namespace innet
