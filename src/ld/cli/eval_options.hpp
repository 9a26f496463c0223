// The evaluation knobs of `liquidd run`, sweep specs and served evals, in
// one table (eval_options.cpp) that names each knob on every front.  A
// front reads its values, then runs check_eval before it builds an
// instance; a refusal is a SpecError in the front's words ("--max-reps:
// must be >= 1", "sweep spec: options.max_reps: ...", "params.target_se: ...").

#pragma once

#include <functional>
#include <string>

#include "ld/election/evaluator.hpp"
#include "support/json.hpp"

namespace ld::cli {

/// A front, also the index of its column in the knob table.
enum EvalFront { Run, Sweep, Serve };

/// Read the knobs of `object` (a sweep's `options`, a served eval's
/// `params`) into `eval`, type-checked: counts are whole and <= 2^53.  A
/// sweep refuses a key that names no knob.
void read_eval_json(const support::json::Value& object, EvalFront front,
                    election::EvalOptions& eval);

/// Read run's eval flag `flag`, its values from `next`; false if none.
bool read_eval_flag(const std::string& flag,
                    const std::function<const std::string&()>& next,
                    election::EvalOptions& eval);

/// The checks before an instance is built: each knob `front` reads lies
/// in its range and no certification comes with `approximate`; then, given
/// the mechanism `spec` names, cycle discarding if it can make cycles and
/// inner_samples >= 1 if it delegates to several voters.
void check_eval(const election::EvalOptions& eval, EvalFront front,
                const mech::Mechanism* mechanism = nullptr, const std::string& spec = "");

/// Replication threads for `threads`, 0 meaning one per pool worker.
std::size_t resolve_threads(std::size_t threads);

}  // namespace ld::cli
