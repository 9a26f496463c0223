#include "ld/election/tally.hpp"

#include <cmath>
#include <optional>
#include <vector>

#include "prob/normal.hpp"
#include "prob/truncated.hpp"
#include "support/expect.hpp"
#include "support/metrics.hpp"

namespace ld::election {

using delegation::DelegationOutcome;
using mech::ActionKind;
using support::expects;

namespace {

/// Collect (weight, competency) pairs of the voting sinks into the given
/// buffers (cleared first).
void sink_profile_into(const DelegationOutcome& outcome,
                       const model::CompetencyVector& p,
                       std::vector<std::uint64_t>& weights,
                       std::vector<double>& probs) {
    weights.clear();
    probs.clear();
    const auto& w = outcome.weights();
    for (graph::Vertex s : outcome.voting_sinks()) {
        weights.push_back(w[s]);
        probs.push_back(p[s]);
    }
}

/// Realize every voter's effective vote (std::nullopt = abstained) into
/// `vote`.  Votes propagate along delegation arcs in reverse topological
/// order (`order` as produced by Digraph::topological_order).  Reads the
/// outcome's actions in place: the callers pass only multi-target
/// outcomes, which are always built from actions.
void realize_votes_into(const DelegationOutcome& outcome,
                        const model::CompetencyVector& p, rng::Rng& rng,
                        std::span<const graph::Vertex> order,
                        std::vector<std::optional<bool>>& vote) {
    const std::size_t n = outcome.voter_count();
    const auto actions = outcome.actions();
    expects(actions.size() == n, "realize_votes: outcome holds no actions");
    vote.assign(n, std::nullopt);
    // Process targets before sources: reverse topological order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const graph::Vertex v = *it;
        const mech::Action& a = actions[v];
        switch (a.kind) {
            case ActionKind::Abstain:
                vote[v] = std::nullopt;
                break;
            case ActionKind::Vote:
                vote[v] = rng.next_bernoulli(p[v]);
                break;
            case ActionKind::Delegate: {
                // Weighted majority over the delegates' realized votes
                // (§6's locally defined weight function; uniform when the
                // action carries no weights).
                double correct = 0.0, cast = 0.0;
                for (std::size_t i = 0; i < a.targets.size(); ++i) {
                    const graph::Vertex t = a.targets[i];
                    if (t == v) continue;  // self-delegation = voting
                    if (!vote[t].has_value()) continue;  // abstained delegate
                    const double w =
                        a.target_weights.empty() ? 1.0 : a.target_weights[i];
                    cast += w;
                    if (*vote[t]) correct += w;
                }
                if (cast == 0.0) {
                    // Self-delegation, or every delegate abstained: fall
                    // back to the voter's own competency draw.
                    vote[v] = rng.next_bernoulli(p[v]);
                } else if (correct * 2.0 == cast) {
                    // Weighted tie: break with the voter's own draw.
                    vote[v] = rng.next_bernoulli(p[v]);
                } else {
                    vote[v] = correct * 2.0 > cast;
                }
                break;
            }
        }
    }
}

}  // namespace

double exact_correct_probability(const DelegationOutcome& outcome,
                                 const model::CompetencyVector& p) {
    TallyScratch scratch;
    return exact_correct_probability(outcome, p, scratch);
}

double exact_correct_probability(const DelegationOutcome& outcome,
                                 const model::CompetencyVector& p,
                                 TallyScratch& scratch) {
    return truncated_correct_probability(outcome, p, 0.0, scratch);
}

double truncated_correct_probability(const DelegationOutcome& outcome,
                                     const model::CompetencyVector& p,
                                     double epsilon, TallyScratch& scratch) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    sink_profile_into(outcome, p, scratch.sink_weights, scratch.sink_probs);
    if (scratch.sink_weights.empty()) return 0.0;  // nobody voted
    const auto tally = prob::truncated_weighted_majority(
        scratch.sink_weights, scratch.sink_probs, epsilon, scratch.dp);
    // Static-local cache: registry lookup once, relaxed atomic store per
    // tally thereafter (the replication loop calls this millions of times).
    static support::Gauge& window_gauge =
        support::MetricsRegistry::global().gauge("tally.window_width");
    window_gauge.set(static_cast<std::int64_t>(tally.max_window));
    return tally.tail;
}

double approx_correct_probability(const DelegationOutcome& outcome,
                                  const model::CompetencyVector& p) {
    TallyScratch scratch;
    return approx_correct_probability(outcome, p, scratch);
}

double approx_correct_probability(const DelegationOutcome& outcome,
                                  const model::CompetencyVector& p,
                                  TallyScratch& scratch) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    const auto& sinks = outcome.voting_sinks();
    if (sinks.empty()) return 0.0;
    // The CLT needs many sinks; with few, the exact windowed DP is cheap
    // anyway and avoids an O(1) bias (e.g. a dictator sink is a single
    // Bernoulli, not a normal).
    if (sinks.size() <= 64) {
        sink_profile_into(outcome, p, scratch.sink_weights, scratch.sink_probs);
        return prob::truncated_weighted_majority(scratch.sink_weights,
                                                 scratch.sink_probs, 0.0, scratch.dp)
            .tail;
    }
    const auto& w = outcome.weights();
    double total = 0.0, mean = 0.0, var = 0.0;
    for (graph::Vertex s : sinks) {
        const auto ws = static_cast<double>(w[s]);
        total += ws;
        mean += ws * p[s];
        var += ws * ws * p[s] * (1.0 - p[s]);
    }
    const double threshold = total / 2.0;
    if (var <= 0.0) return mean > threshold ? 1.0 : 0.0;  // deterministic votes
    // Continuity correction: S is integer-ish on the weight lattice; use
    // half a unit, the standard correction for the unit-weight case.
    return 1.0 - prob::normal_cdf(threshold + 0.5, mean, std::sqrt(var));
}

double conditional_vote_variance(const DelegationOutcome& outcome,
                                 const model::CompetencyVector& p) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    const auto& w = outcome.weights();
    double var = 0.0;
    for (graph::Vertex s : outcome.voting_sinks()) {
        const auto weight = static_cast<double>(w[s]);
        var += weight * weight * p[s] * (1.0 - p[s]);
    }
    return var;
}

double conditional_vote_mean(const DelegationOutcome& outcome,
                             const model::CompetencyVector& p) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    const auto& w = outcome.weights();
    double mean = 0.0;
    for (graph::Vertex s : outcome.voting_sinks()) {
        mean += static_cast<double>(w[s]) * p[s];
    }
    return mean;
}

namespace {

bool majority_of_votes(const std::vector<std::optional<bool>>& vote) {
    std::uint64_t correct = 0, cast = 0;
    for (std::size_t v = 0; v < vote.size(); ++v) {
        if (vote[v].has_value()) {
            ++cast;
            if (*vote[v]) ++correct;
        }
    }
    return cast > 0 && correct * 2 > cast;
}

}  // namespace

bool sample_outcome_correct(const DelegationOutcome& outcome,
                            const model::CompetencyVector& p, rng::Rng& rng) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    if (outcome.functional()) {
        // Fast path: draw the sinks only and use the weighted majority.
        const auto& w = outcome.weights();
        std::uint64_t correct = 0, cast = 0;
        for (graph::Vertex s : outcome.voting_sinks()) {
            cast += w[s];
            if (rng.next_bernoulli(p[s])) correct += w[s];
        }
        return cast > 0 && correct * 2 > cast;
    }
    const auto order = outcome.as_digraph().topological_order();
    std::vector<std::optional<bool>> vote;
    realize_votes_into(outcome, p, rng, order, vote);
    return majority_of_votes(vote);
}

bool sample_outcome_correct(const DelegationOutcome& outcome,
                            const model::CompetencyVector& p, rng::Rng& rng,
                            std::span<const graph::Vertex> topo_order,
                            TallyScratch& scratch) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    if (outcome.functional()) {
        return sample_outcome_correct(outcome, p, rng);  // sink fast path
    }
    realize_votes_into(outcome, p, rng, topo_order, scratch.votes);
    return majority_of_votes(scratch.votes);
}

std::uint64_t sample_correct_vote_count(const DelegationOutcome& outcome,
                                        const model::CompetencyVector& p,
                                        rng::Rng& rng) {
    expects(outcome.voter_count() == p.size(), "tally: size mismatch");
    if (outcome.functional()) {
        const auto& w = outcome.weights();
        std::uint64_t correct = 0;
        for (graph::Vertex s : outcome.voting_sinks()) {
            if (rng.next_bernoulli(p[s])) correct += w[s];
        }
        return correct;
    }
    const auto order = outcome.as_digraph().topological_order();
    std::vector<std::optional<bool>> vote;
    realize_votes_into(outcome, p, rng, order, vote);
    std::uint64_t correct = 0;
    for (const auto& v : vote) {
        if (v.has_value() && *v) ++correct;
    }
    return correct;
}

}  // namespace ld::election
