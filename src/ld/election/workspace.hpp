// Per-worker scratch for the Monte-Carlo replication loop.  One workspace
// per worker thread; every replication rebuilds the delegation outcome and
// tallies it *in place*, so the steady state of the loop performs no heap
// allocation.  A mechanism whose delegators the estimate listed draws
// their delegates into the outcome, which keeps the unlisted voters'
// state from one replication to the next while the list stays the same;
// any other single-target mechanism draws each voter's successor
// straight into the sink-resolution scratch (no per-voter Action), whose
// one voter list the walk borrows; a multi-delegation mechanism refills
// the outcome's actions vector (including each voter's `targets`
// buffer).  Those buffers, the sink profile, the weighted-Bernoulli DP
// table, and the multi-delegation vote buffers are all recycled across
// replications — and across experiment cells when the workspace is owned
// by a ReplicationEngine.

#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "ld/delegation/delegation_graph.hpp"
#include "ld/election/tally.hpp"

namespace ld::election {

/// Everything one replication worker reuses between replications.
struct ReplicationWorkspace {
    /// The realized delegation graph, rebuilt in place each replication.
    delegation::DelegationOutcome outcome;
    /// Sink-resolution scratch (successors, chain walk, voter list).
    delegation::DelegationOutcome::ResolveScratch resolve;
    /// Inner-tally buffers (sink profile, DP table, sampled votes).
    TallyScratch tally;
    /// Reverse-topological order of the current realization — computed
    /// once per replication for multi-delegation outcomes and shared by
    /// all inner samples.
    std::vector<graph::Vertex> topo_order;
};

}  // namespace ld::election
