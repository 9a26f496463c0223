#include "ld/mech/best_neighbour.hpp"

namespace ld::mech {

std::optional<double> BestNeighbour::vote_directly_probability(
    const model::Instance& instance, graph::Vertex v) const {
    return instance.approved_neighbours_view(v).empty() ? 1.0 : 0.0;
}

}  // namespace ld::mech
