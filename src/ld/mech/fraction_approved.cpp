#include "ld/mech/fraction_approved.hpp"

#include "support/expect.hpp"

namespace ld::mech {

using support::expects;

FractionApproved::FractionApproved(double fraction) : fraction_(fraction) {
    expects(fraction_ > 0.0 && fraction_ <= 1.0, "FractionApproved: fraction out of (0,1]");
}

std::string FractionApproved::name() const {
    return "FractionApproved(f=" + std::to_string(fraction_) + ")";
}

std::optional<double> FractionApproved::vote_directly_probability(
    const model::Instance& instance, graph::Vertex v) const {
    const std::size_t approved = instance.approved_neighbours_view(v).size();
    return delegates(instance, v, approved) ? 0.0 : 1.0;
}

}  // namespace ld::mech
