// The shared inner loop of every Poisson-binomial-style DP in this repo:
// convolving a pmf with the two-point distribution {0 ↦ 1−p, w ↦ p}.
//
// The historical implementation iterated the pmf *downwards in place*
// (`pmf[s+w] += pmf[s]·p; pmf[s] *= 1−p`), which carries a loop
// dependence of distance w and defeats auto-vectorization for the
// common w = 1 case.  The scalar kernel below instead ping-pongs between
// two restrict-qualified buffers and walks forwards, so the hot interior
// is the stream `out[s] = in[s]·q + in[s−w]·p` — independent lanes.
//
// On top of the scalar reference sit explicit AVX2 / AVX-512
// specializations (`prob/convolve_simd.cpp`), selected once at runtime
// from CPU features (`support/cpu_features`) or pinned via `--simd` /
// LIQUIDD_SIMD.  Every tier evaluates the *same* mul/mul/add expression
// per element — no FMA contraction anywhere — so all tiers are
// bit-identical to the scalar loop.  The tier choice is a pure
// performance/attribution knob; determinism contracts and the certified
// ε accounting of the truncated kernels are unaffected.
//
// The same tier table carries the window convolution of the incremental
// tally's product tree (`prob/factor_tree.hpp`), under the same rule.
//
// Shared by the windowed tally kernels (`prob/truncated.hpp`, the eval
// path), the full-width oracles (`PoissonBinomial`,
// `WeightedBernoulliSum`, kept for tests), and the product tree.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/cpu_features.hpp"

namespace ld::prob {

/// Ping-pong DP buffers for the two-point convolution.  One per worker;
/// reused across tallies (and across replications when owned by a
/// `TallyScratch`).
struct ConvolveScratch {
    std::vector<double> front;  ///< current pmf (input of the next step)
    std::vector<double> back;   ///< output of the next step
};

namespace detail {

/// One convolution step: given `in[0, n)` — the pmf of a partial sum —
/// write the pmf after adding w·Bernoulli(p) into `out[0, n + w)`:
///
///   out[s] = in[s]·(1−p) + in[s−w]·p      (terms outside [0, n) are 0)
///
/// Requires w ≥ 1, n ≥ 1, and in/out non-overlapping (the __restrict
/// qualification is a promise, not a check).  This is the portable
/// reference all SIMD tiers must match bit-for-bit.
inline void convolve_two_point_scalar(const double* __restrict in,
                                      double* __restrict out,
                                      std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const std::size_t head = std::min(w, n);
    for (std::size_t s = 0; s < head; ++s) out[s] = in[s] * q;
    // w > n only: the gap [n, w) is reachable by neither term.
    for (std::size_t s = head; s < w; ++s) out[s] = 0.0;
    // The vectorizable interior: two independent streams.
    for (std::size_t s = w; s < n; ++s) out[s] = in[s] * q + in[s - w] * p;
    for (std::size_t s = std::max(n, w); s < n + w; ++s) out[s] = in[s - w] * p;
}

/// Single-pmf convolution step, any tier.
using ConvolveFn = void (*)(const double* __restrict in, double* __restrict out,
                            std::size_t n, std::size_t w, double p);

/// Zeros a window-convolution input must carry on each side of its data:
/// at least the widest tier's register block minus one.
inline constexpr std::size_t kWindowPad = 64;

/// Direct-form window convolution of `f[0, nf)` with `in[0, nin)`:
///
///   out[k] = Σ_j f[j]·in[k−j]    for k ∈ [0, nf + nin − 1),
///
/// each sum started at 0 and taken over ascending j, zero f[j] skipped,
/// one multiply then one add per term — the roundings of
/// `for j: if (f[j] != 0) for i: out[j+i] += f[j]·in[i]` over a zeroed
/// `out`, on every tier.  The kernels keep a block of outputs in
/// registers and read `in` across the block unmasked, so `in` must sit
/// inside a buffer holding kWindowPad zeros before in[0] and after
/// in[nin − 1] (`pad_window`); adding f[j]·0 leaves a sum that started
/// at +0 unchanged, so the pad never moves a bit.  Requires nf, nin ≥ 1;
/// writes exactly out[0, nf + nin − 1).
using WindowConvolveFn = void (*)(const double* __restrict f, std::size_t nf,
                                  const double* __restrict in, std::size_t nin,
                                  double* __restrict out);

/// Copy `in` between kWindowPad zeros into `padded` and return where the
/// copy starts — the `in` argument a WindowConvolveFn needs.
inline const double* pad_window(const double* in, std::size_t nin,
                                std::vector<double>& padded) {
    padded.assign(nin + 2 * kWindowPad, 0.0);
    std::copy(in, in + nin, padded.begin() + kWindowPad);
    return padded.data() + kWindowPad;
}

/// Active single-pmf kernel for the current tier.  DP drivers hoist this
/// out of their step loops so the per-step cost is one indirect call,
/// not a dispatch lookup per convolution.
ConvolveFn convolve_kernel();

/// Active window-convolution kernel for the current tier.
WindowConvolveFn window_convolve_kernel();

}  // namespace detail

/// Runtime-dispatched two-point convolution step.  Same contract as
/// `detail::convolve_two_point_scalar`; bit-identical on every tier.
void convolve_two_point(const double* __restrict in, double* __restrict out,
                        std::size_t n, std::size_t w, double p);

/// Tier the dispatched kernels currently run at.  First use resolves the
/// tier once: LIQUIDD_SIMD if set and valid, otherwise the widest tier
/// the host supports.
support::SimdTier kernel_tier();

/// Pin the kernel tier (CLI `--simd`, tests).  Returns false — leaving
/// the active tier unchanged — when the host cannot execute `tier`.
bool set_kernel_tier(support::SimdTier tier);

}  // namespace ld::prob
