// [F2] Figure 2 — the paper's 9-voter worked example.
//
// Instance: voters v1..v9 with competencies {0.8, 0.6, 0.5, 0.4, 0.3,
// 0.3, 0.2, 0.2, 0.1}, α = 0.01, Example-1 mechanism with threshold j = 0
// (every voter with a non-empty approval set delegates).  We realize the
// delegation graph many times and report, per voter, the delegation
// frequency plus an example realization as DOT (the figure's right-hand
// graph).

#include <iostream>
#include <sstream>

#include "graph/io.hpp"
#include "ld/delegation/realize.hpp"
#include "ld/election/evaluator.hpp"
#include "ld/experiments/harness.hpp"
#include "ld/experiments/workloads.hpp"
#include "ld/mech/approval_size_threshold.hpp"

int main() {
    using namespace ld;
    experiments::Experiment exp(
        "F2", "Figure 2: 9-voter worked example (Example-1 mechanism, alpha=0.01)",
        {"voter", "p_i", "approval_set_size", "delegates", "mean_weight_as_sink"});
    auto rng = exp.make_rng();

    const auto inst = experiments::figure2_instance();
    const mech::ApprovalSizeThreshold mechanism(1);

    constexpr int kReps = 4000;
    std::vector<double> weight_acc(9, 0.0);
    std::vector<int> delegated(9, 0);
    for (int rep = 0; rep < kReps; ++rep) {
        const auto out = delegation::realize(mechanism, inst, rng);
        const auto& w = out.weights();
        for (graph::Vertex v = 0; v < 9; ++v) {
            weight_acc[v] += static_cast<double>(w[v]);
            if (out.action(v).kind == mech::ActionKind::Delegate) ++delegated[v];
        }
    }
    const auto counts = inst.approved_neighbour_counts();
    for (graph::Vertex v = 0; v < 9; ++v) {
        exp.add_row({std::string("v") + std::to_string(v + 1), inst.competency(v),
                     static_cast<long long>(counts[v]),
                     static_cast<double>(delegated[v]) / kReps,
                     weight_acc[v] / kReps});
    }

    const auto report = election::estimate_gain(mechanism, inst, rng, {});
    std::ostringstream note;
    note << "P^D = " << report.pd << ", P^M = " << report.pm.value
         << ", gain = " << report.gain;
    exp.add_note(note.str());
    exp.add_note("v1 (p=0.8) never delegates; v2..v9 always delegate upward, as in the figure");
    exp.finish();

    // One example realization, rendered as the figure's delegation digraph.
    const auto out = delegation::realize(mechanism, inst, rng);
    std::vector<std::string> labels;
    for (graph::Vertex v = 0; v < 9; ++v) {
        std::string label = "v";
        label += std::to_string(v + 1);
        label += " p=";
        label += std::to_string(inst.competency(v)).substr(0, 4);
        labels.push_back(std::move(label));
    }
    std::cout << "\nexample delegation graph (DOT):\n";
    graph::write_dot(std::cout, out.as_digraph(), labels, "Figure2");
    return 0;
}
