// Degraded-mode region resolution: rerouting a query boundary around
// failed sensors (docs/FAULTS.md).
//
// A region of G̃ is a union of faces, and its boundary consists purely of
// monitored edges — each owned by one physical sensor (SensorNetwork::
// EdgeOwner). When an owner has failed, its tracking form is unreadable and
// a point estimate over that boundary is silently wrong. Instead of
// trusting it, the region is DEFORMED across the dead faces, in both
// directions, until every boundary edge is healthy:
//
//   - outward: absorb the face on the far side of each dead boundary edge
//     (the dead edge becomes interior and drops out of the integral),
//     yielding F+ ⊇ F whose boundary is healthy;
//   - inward: shed the face on the near side, yielding F- ⊆ F.
//
// Both deformations move the boundary homologously — across whole faces —
// so the deformed boundaries stay unions of monitored edges. Static
// occupancy is monotone under region inclusion, so the fault-free count of
// F is bracketed by the counts of F- and F+; AnswerCore::Answer
// (core/answer_core.h) integrates both and widens the interval by the
// missed-crossing slack of the healthy channel (message loss, clock skew).
#ifndef INNET_CORE_DEGRADED_H_
#define INNET_CORE_DEGRADED_H_

#include "core/health.h"
#include "core/query_workspace.h"
#include "core/resolved_region.h"
#include "core/sampled_graph.h"

namespace innet::core {

/// Deforms a resolved region around failed sensors. Expects `region->faces`
/// and their fault-free boundary `region->boundary` in place. When no edge
/// of F has a failed owner under `health` the region stays healthy
/// (degraded == false) and nothing is deformed; otherwise marks it degraded
/// and fills F+ (`outer`), F- (`inner`, or `inner_empty`), and the dead-edge
/// and reroute counts. `ws` is scratch.
void ResolveDegradedBoundary(const SampledGraph& sampled,
                             const SensorHealthView& health,
                             const DegradedOptions& options,
                             QueryWorkspace& ws, ResolvedRegion* region);

}  // namespace innet::core

#endif  // INNET_CORE_DEGRADED_H_
