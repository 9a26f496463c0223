#include "ld/recycle/recycle_graph.hpp"

#include <algorithm>
#include <cmath>

#include "support/expect.hpp"

namespace ld::recycle {

using support::expects;

RecycleGraph::RecycleGraph(std::vector<RecycleNode> nodes) : nodes_(std::move(nodes)) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const RecycleNode& nd = nodes_[i];
        expects(nd.z >= 0.0 && nd.z <= 1.0, "RecycleGraph: z out of [0,1]");
        expects(nd.p >= 0.0 && nd.p <= 1.0, "RecycleGraph: p out of [0,1]");
        expects(nd.successor_prefix <= i, "RecycleGraph: window must precede vertex");
        if (nd.z < 1.0) {
            expects(nd.successor_prefix > 0,
                    "RecycleGraph: recycling vertex needs a non-empty window");
        }
    }
    compute_derived();
}

void RecycleGraph::compute_derived() {
    const std::size_t n = nodes_.size();
    // j = leading vertices that can never recycle.
    j_ = 0;
    while (j_ < n && (nodes_[j_].z >= 1.0 || nodes_[j_].successor_prefix == 0)) ++j_;

    // Longest chain: len[i] = 1 if fresh-only; else 1 + max_{k < prefix} len[k].
    // prefix_max[i] = max(len[0..i]) lets this run in O(n).
    std::vector<std::size_t> len(n, 1), prefix_max(n, 0);
    partition_complexity_ = n == 0 ? 0 : 1;
    for (std::size_t i = 0; i < n; ++i) {
        if (nodes_[i].z < 1.0 && nodes_[i].successor_prefix > 0) {
            len[i] = 1 + prefix_max[nodes_[i].successor_prefix - 1];
        }
        prefix_max[i] = i == 0 ? len[0] : std::max(prefix_max[i - 1], len[i]);
        partition_complexity_ = std::max(partition_complexity_, len[i]);
    }
    levels_ = len;

    // Exact expectations: E[x_i] = z p_i + (1−z)·mean_{k<prefix} E[x_k].
    mu_.assign(n, 0.0);
    mu_prefix_.assign(n, 0.0);
    double running = 0.0;  // Σ_{k < i} μ_k
    for (std::size_t i = 0; i < n; ++i) {
        const RecycleNode& nd = nodes_[i];
        double mu = nd.z * nd.p;
        if (nd.z < 1.0 && nd.successor_prefix > 0) {
            const double window_sum = mu_prefix_[nd.successor_prefix - 1];
            mu += (1.0 - nd.z) * window_sum / static_cast<double>(nd.successor_prefix);
        }
        mu_[i] = mu;
        running += mu;
        mu_prefix_[i] = running;
    }
}

RecycleGraph RecycleGraph::from_instance(const model::Instance& instance,
                                         const mech::Mechanism& mechanism) {
    const std::size_t n = instance.voter_count();
    const auto& p = instance.competencies();

    // Voters sorted by descending competency (the paper's v_1 = best).
    std::vector<std::size_t> order = p.ascending_order();
    std::reverse(order.begin(), order.end());

    std::vector<RecycleNode> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto voter = static_cast<graph::Vertex>(order[i]);
        RecycleNode& nd = nodes[i];
        nd.p = p[voter];
        const auto z = mechanism.vote_directly_probability(instance, voter);
        expects(z.has_value(),
                "RecycleGraph::from_instance: mechanism lacks a closed-form "
                "direct-voting probability");
        nd.z = *z;
        // Window: earlier (more competent) voters at least α above.
        std::size_t prefix = 0;
        while (prefix < i && p[static_cast<graph::Vertex>(order[prefix])] >=
                                 p[voter] + instance.alpha()) {
            ++prefix;
        }
        nd.successor_prefix = prefix;
        if (prefix == 0) nd.z = 1.0;  // nobody to recycle from — fresh draw
    }
    return RecycleGraph(std::move(nodes));
}

RecycleGraph RecycleGraph::synthetic(std::size_t n, std::size_t j, double z,
                                     double p_fresh, std::size_t bands) {
    expects(j >= 1 && j <= n, "RecycleGraph::synthetic: need 1 <= j <= n");
    expects(bands >= 1, "RecycleGraph::synthetic: need at least one band");
    std::vector<RecycleNode> nodes(n);
    // Band b covers indices [band_start(b), band_start(b+1)); band 0 is the
    // fresh block of length j, later bands split the rest evenly.
    const std::size_t rest = n - j;
    const auto band_start = [&](std::size_t b) {
        if (b == 0) return std::size_t{0};
        return j + (rest * (b - 1)) / bands;
    };
    for (std::size_t i = 0; i < n; ++i) {
        nodes[i].p = p_fresh;
        if (i < j) {
            nodes[i].z = 1.0;
            nodes[i].successor_prefix = 0;
            continue;
        }
        // Find this vertex's band and recycle only into earlier bands.
        std::size_t b = 1;
        while (b <= bands && band_start(b + 1) <= i && b < bands) ++b;
        // window = everything before this band's start
        std::size_t prefix = band_start(b);
        if (prefix == 0) prefix = j;
        nodes[i].z = z;
        nodes[i].successor_prefix = prefix;
    }
    return RecycleGraph(std::move(nodes));
}

}  // namespace ld::recycle
