// Anytime-valid confidence sequences for bounded observations.
//
// The adaptive stopper in ld/election (`--target-se`) re-tests a fixed
// standard-error target at every batch boundary.  Repeated looks at a
// fixed-width CI are *not* a valid confidence procedure: each look has its
// own α chance of excluding the truth, and the union of looks silently
// inflates the error far beyond the nominal level (see
// docs/STATISTICS.md).  A confidence sequence fixes this by spending a
// per-look slice δ_k of the total error budget δ, with Σ_k δ_k ≤ δ, so
//
//     P( ∃ look k : mean ∉ I_k ) ≤ δ
//
// holds simultaneously over *every* look — which makes "stop as soon as
// the interval clears a threshold" a valid decision rule at level δ.
//
// Two boundary engines are provided, both for i.i.d. observations bounded
// in [0, 1] (our per-replication P^M terms and correctness indicators):
//
//   Hoeffding           ε_k = sqrt( ln(2/δ_k) / (2 t) )
//   EmpiricalBernstein  ε_k = sqrt( 2 V_t ln(4/δ_k) / t )
//                             + 7 ln(4/δ_k) / (3 (t − 1))
//
// with t the observation count at look k, V_t the unbiased sample
// variance, and the per-look budget δ_k = δ / (k (k + 1)) (so
// Σ_{k≥1} δ_k = δ exactly).  The empirical-Bernstein bound
// (Maurer & Pontil 2009, Theorem 4, two-sided via δ/2 per tail) adapts to
// the observed variance: for near-deterministic replications (the common
// case under Rao–Blackwellised tallies) it is far narrower than Hoeffding.
//
// Exact formulas, assumptions, and the composition with the certified
// ε/2 truncated-tally error are documented in docs/STATISTICS.md.

#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "stats/confidence.hpp"
#include "stats/running_stats.hpp"

namespace ld::stats {

/// Which anytime-valid half-width formula a ConfidenceSequence uses.
enum class CsBoundary {
    Hoeffding,          ///< variance-free, range-based
    EmpiricalBernstein, ///< variance-adaptive (Maurer–Pontil)
};

/// Canonical lowercase name ("hoeffding" / "empirical_bernstein").
const char* cs_boundary_name(CsBoundary boundary) noexcept;

/// Parse a boundary name; accepts "hoeffding", "empirical_bernstein",
/// "empirical-bernstein", and "eb".  Returns nullopt for any other name,
/// which the caller refuses in its own words.
std::optional<CsBoundary> parse_cs_boundary(const std::string& name);

/// Why a certified run stopped.
enum class CertStop {
    DecidedAbove,    ///< interval cleared the threshold from above
    DecidedBelow,    ///< interval cleared the threshold from below
    BudgetExhausted, ///< replication cap hit before a decision
};

/// Short stable label ("decided_above" / "decided_below" /
/// "budget_exhausted") — used in CLI output, sweep rows, serve responses,
/// and the cert.stop_reason metric docs.
const char* cert_stop_name(CertStop stop) noexcept;

/// A two-sided anytime-valid certificate on a mean in [0, 1]:
/// P( mean ∉ [lo, hi] ) ≤ delta over all looks taken, with the certified
/// numerical tally error (ε/2 per observation) already folded into the
/// endpoints.  docs/STATISTICS.md derives the end-to-end budget.
struct CertifiedEstimate {
    double lo = 0.0;              ///< certified lower endpoint (statistical + numerical)
    double hi = 1.0;              ///< certified upper endpoint
    double delta = 0.0;           ///< statistical error budget spent by the sequence
    double numerical_error = 0.0; ///< per-observation certified tally bound (ε/2)
    std::size_t replications = 0; ///< observations consumed at stop
    std::size_t looks = 0;        ///< boundary evaluations taken
    CertStop stop = CertStop::BudgetExhausted;

    double half_width() const noexcept { return (hi - lo) / 2.0; }
    bool decided() const noexcept { return stop != CertStop::BudgetExhausted; }
    bool contains(double x) const noexcept { return x >= lo && x <= hi; }
};

/// One anytime-valid confidence sequence over observations in [0, 1].
///
/// Usage: `add()` observations, then call `look()` at each stopping check;
/// every returned interval is simultaneously valid at level `delta`
/// (union bound over looks actually taken).  Calling `look()` more often
/// than needed is statistically free in validity but widens later
/// intervals (δ_k shrinks with k) — look only at batch boundaries.
///
/// Determinism: the state is a Welford accumulator plus a look counter;
/// feeding the same observations in the same order yields bit-identical
/// intervals regardless of thread count or scheduling.
class ConfidenceSequence {
public:
    /// `delta` must lie in (0, 1).  Throws ContractViolation otherwise.
    ConfidenceSequence(CsBoundary boundary, double delta);

    /// Record one observation; must lie in [0, 1] (callers clamp certified
    /// truncated-tally samples first — see docs/STATISTICS.md §4).
    void add(double x);

    /// Spend one look: the k-th call computes the half-width at budget
    /// δ_k = δ / (k (k + 1)) and returns [mean − ε_k, mean + ε_k] clipped
    /// to [0, 1].  Requires at least one observation (two for the
    /// empirical-Bernstein boundary, which divides by t − 1).
    Interval look();

    /// The half-width the *next* look would use, without spending it.
    double peek_half_width() const;

    CsBoundary boundary() const noexcept { return boundary_; }
    double delta() const noexcept { return delta_; }
    std::size_t count() const noexcept { return acc_.count(); }
    std::size_t looks() const noexcept { return looks_; }
    double mean() const noexcept { return acc_.mean(); }
    double variance() const noexcept { return acc_.variance(); }

private:
    double half_width_at(std::size_t look_index) const;

    CsBoundary boundary_;
    double delta_;
    std::size_t looks_ = 0;
    RunningStats acc_;
};

}  // namespace ld::stats
