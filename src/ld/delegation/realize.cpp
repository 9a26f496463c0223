#include "ld/delegation/realize.hpp"

#include "support/expect.hpp"

namespace ld::delegation {

namespace {

std::vector<mech::Action> sample_actions(const mech::Mechanism& mechanism,
                                         const model::Instance& instance,
                                         rng::Rng& rng) {
    std::vector<mech::Action> actions;
    actions.reserve(instance.voter_count());
    for (graph::Vertex v = 0; v < instance.voter_count(); ++v) {
        actions.push_back(mechanism.act(instance, v, rng));
    }
    return actions;
}

}  // namespace

DelegationOutcome realize(const mech::Mechanism& mechanism,
                          const model::Instance& instance, rng::Rng& rng) {
    return DelegationOutcome(sample_actions(mechanism, instance, rng));
}

DelegationOutcome realize_weighted(const mech::Mechanism& mechanism,
                                   const model::Instance& instance, rng::Rng& rng,
                                   std::span<const std::uint64_t> initial_weights,
                                   CyclePolicy cycle_policy) {
    return DelegationOutcome(sample_actions(mechanism, instance, rng),
                             initial_weights, cycle_policy);
}

void realize_into(DelegationOutcome& outcome,
                  DelegationOutcome::ResolveScratch& scratch,
                  const mech::Mechanism& mechanism, const model::Instance& instance,
                  rng::Rng& rng, std::span<const std::uint64_t> initial_weights,
                  CyclePolicy cycle_policy) {
    if (mechanism.multi_delegation()) {
        auto& actions = outcome.begin_rebuild();
        actions.resize(instance.voter_count());
        for (graph::Vertex v = 0; v < instance.voter_count(); ++v) {
            mechanism.act_into(instance, v, rng, actions[v]);
        }
        outcome.finish_rebuild(initial_weights, cycle_policy, scratch);
        return;
    }
    const std::size_t n = instance.voter_count();
    scratch.next.resize(n);
    mechanism.successors_into(instance, rng, scratch.next);
    outcome.rebuild_from_successors(initial_weights, cycle_policy, scratch);
}

void realize_listed_into(DelegationOutcome& outcome,
                         DelegationOutcome::ResolveScratch& scratch,
                         const DelegatorList& list, const model::Instance& instance,
                         rng::Rng& rng, CyclePolicy cycle_policy) {
    support::expects(list.voter_count() == instance.voter_count(),
                     "realize_listed_into: the list is of another instance");
    const std::span<graph::Vertex> next = outcome.begin_listed(list);
    mech::draw_approved_delegates(instance, rng, list.voters(), next);
    outcome.finish_listed(list, cycle_policy, scratch);
}

double expected_direct_voter_count(const mech::Mechanism& mechanism,
                                   const model::Instance& instance) {
    double total = 0.0;
    for (graph::Vertex v = 0; v < instance.voter_count(); ++v) {
        const auto p = mechanism.vote_directly_probability(instance, v);
        if (!p.has_value()) return -1.0;
        total += *p;
    }
    return total;
}

}  // namespace ld::delegation
