// Query processors: the sampled in-network processor (§4.6-4.8) and the
// unsampled exact processor ([34], the paper's reference).
#ifndef INNET_CORE_QUERY_PROCESSOR_H_
#define INNET_CORE_QUERY_PROCESSOR_H_

#include "core/answer_core.h"
#include "core/health.h"
#include "core/query.h"
#include "core/query_workspace.h"
#include "core/sampled_graph.h"
#include "core/sensor_network.h"
#include "forms/edge_count_store.h"
#include "forms/store_handle.h"
#include "obs/explain.h"
#include "obs/trace.h"

namespace innet::core {

/// Answers queries on a sampled graph against any edge-count store (exact
/// tracking forms or learned models): the serial wrapper of AnswerCore
/// (core/answer_core.h), whose StoreView runs the fused kernels whenever
/// the store is a forms::FrozenTrackingForm. Holds references only; the
/// graph and store must outlive the processor.
class SampledQueryProcessor {
 public:
  SampledQueryProcessor(const SampledGraph& sampled,
                        const forms::EdgeCountStore& store)
      : core_(sampled, store) {}

  /// Handle mode (live ingestion): the processor follows the store
  /// published through `handle` — every Answer* call re-checks the
  /// generation (one atomic load, no heap allocation on the warm path) and
  /// re-acquires on change, so answers always reflect the latest completed
  /// epoch instead of the store latched at construction. A handle-mode
  /// processor is single-threaded; give each reader thread its own (they
  /// share the handle).
  SampledQueryProcessor(const SampledGraph& sampled,
                        const forms::FrozenStoreHandle& handle)
      : core_(sampled, handle) {}

  /// Approximates the query under the given bound mode. A miss (no face of
  /// G̃ satisfies the bound) reports estimate 0 with missed = true.
  ///
  /// `trace` (optional) records the boundary-resolution and
  /// form-integration stage spans of this query (docs/OBSERVABILITY.md).
  /// Every call also feeds the `innet_processor_*` metrics of the global
  /// registry. `explain` (optional) receives the answer's provenance —
  /// resolved faces, dead-space fraction, boundary size, store family —
  /// which is deterministic for a given deployment and query.
  /// `workspace` (optional) supplies the scratch buffers of the
  /// resolve-and-integrate path; with it (or the per-thread fallback,
  /// core::LocalWorkspace) the warm path performs ZERO heap allocations.
  /// Every call also overwrites the workspace's `cost` profile
  /// (obs/query_cost.h) with this query's cost account — plain stores,
  /// still zero allocations.
  QueryAnswer Answer(const RangeQuery& query, CountKind kind,
                     BoundMode bound, obs::QueryTrace* trace = nullptr,
                     obs::ExplainRecord* explain = nullptr,
                     QueryWorkspace* workspace = nullptr) const;

  /// Fault-tolerant answering (docs/FAULTS.md): when the resolved region's
  /// boundary touches edges owned by sensors `health` reports failed, the
  /// boundary is rerouted through healthy dual edges (homologous
  /// deformation across the dead faces) and the answer carries a count
  /// interval widened by the missed-crossing bound instead of a silently
  /// wrong point estimate. With no failed owner on the boundary this
  /// matches Answer() exactly (with a degenerate interval).
  QueryAnswer AnswerDegraded(const RangeQuery& query, CountKind kind,
                             BoundMode bound, const SensorHealthView& health,
                             const DegradedOptions& options,
                             obs::QueryTrace* trace = nullptr,
                             obs::ExplainRecord* explain = nullptr) const;

  /// Time-series evaluation: static counts of the query's region at
  /// `steps` evenly spaced instants spanning [query.t1, query.t2]
  /// (inclusive endpoints). Any step count is accepted: `steps == 1`
  /// returns the single instant at t1 and `steps == 0` an empty vector.
  /// The region is resolved and its boundary dispatched ONCE. On a frozen
  /// store the whole series is evaluated by the batch kernel — one merge
  /// pass over each boundary edge's event sequence instead of `steps`
  /// independent searches. Returns an empty vector on a miss.
  std::vector<double> AnswerSeries(const RangeQuery& query, BoundMode bound,
                                   size_t steps) const;

 private:
  /// Both Answer entry points: resolve into the workspace's region, answer
  /// through the core, account. `options` is non-null iff `health` is.
  QueryAnswer AnswerServed(const RangeQuery& query, CountKind kind,
                           BoundMode bound, const SensorHealthView* health,
                           const DegradedOptions* options,
                           obs::QueryTrace* trace, obs::ExplainRecord* explain,
                           QueryWorkspace& ws) const;

  // `mutable` only so the const entry points can follow a published store:
  // answers are those of the current store either way.
  mutable AnswerCore core_;
};

/// Exact processor over the full sensing graph. Per §5.4, the unsampled
/// system floods every sensor inside the query region, so nodes_accessed
/// grows with the region area.
class UnsampledQueryProcessor {
 public:
  explicit UnsampledQueryProcessor(const SensorNetwork& network)
      : network_(&network) {}

  /// `explain` (optional) receives provenance; the exact path has no
  /// sampled faces and no dead space, so those fields stay empty/zero.
  /// `workspace` (optional) replaces the per-query junction mask and
  /// flooded-sensor set with stamped scratch (zero steady-state
  /// allocations; defaults to the calling thread's LocalWorkspace).
  QueryAnswer Answer(const RangeQuery& query, CountKind kind,
                     obs::ExplainRecord* explain = nullptr,
                     QueryWorkspace* workspace = nullptr) const;

 private:
  const SensorNetwork* network_;
};

}  // namespace innet::core

#endif  // INNET_CORE_QUERY_PROCESSOR_H_
