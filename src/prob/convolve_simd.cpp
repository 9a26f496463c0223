// Runtime-dispatched SIMD specializations of the two-point convolution
// and the window convolution (see prob/convolve.hpp for the contracts).
//
// Bit-identity across tiers is a hard invariant here: every convolution
// kernel — scalar, AVX2, AVX-512 — evaluates exactly `in[s]·q +
// in[s−w]·p` as two IEEE multiplies and one add in that order, and every
// window-convolution kernel adds `f[j]·in[k−j]` to output k over
// ascending j as one multiply and one add.
// Vector mul/add round each lane exactly like their scalar counterparts,
// so lane width never changes results; the only thing a wider tier
// changes is speed.  To keep that promise this translation unit is
// compiled with -ffp-contract=off (src/CMakeLists.txt), which forbids
// the compiler from re-fusing the mul/add pairs into FMAs.
//
// Each vector region loop ends in one masked remainder instead of a
// scalar tail loop: the masked lanes run the same per-element arithmetic,
// masked-off lanes are neither loaded (no fault past the buffer end) nor
// stored, so a remainder is bit-identical to the scalar loop it replaces.
//
// The window convolution is register-blocked: a block of outputs stays in
// accumulator registers while j walks f, and each step adds f[j] times
// one unaligned run of `in` — loads only, no read-modify-write of `out`.
// Terms that fall outside `in` read the caller's zero pad and add +0.

#include "prob/convolve.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "support/cpu_features.hpp"
#include "support/metrics.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define LIQUIDD_SIMD_X86 1
#include <immintrin.h>
#else
#define LIQUIDD_SIMD_X86 0
#endif

namespace ld::prob {

namespace detail {

namespace {

void convolve_scalar_entry(const double* __restrict in, double* __restrict out,
                           std::size_t n, std::size_t w, double p) {
    convolve_two_point_scalar(in, out, n, w, p);
}

/// First j of f whose term reaches output block [k0, ...): k − j < nin.
inline std::size_t window_j_begin(std::size_t k0, std::size_t nin) {
    return k0 + 1 > nin ? k0 + 1 - nin : 0;
}

/// &in[k0 − j], which lies in the zero pad when j > k0.
inline const double* window_src(const double* in, std::size_t k0, std::size_t j) {
    return in + (static_cast<std::ptrdiff_t>(k0) - static_cast<std::ptrdiff_t>(j));
}

void window_convolve_scalar(const double* __restrict f, std::size_t nf,
                            const double* __restrict in, std::size_t nin,
                            double* __restrict out) {
    constexpr std::size_t kBlock = 8;
    const std::size_t width = nf + nin - 1;
    for (std::size_t k0 = 0; k0 < width; k0 += kBlock) {
        double acc[kBlock] = {};
        const std::size_t j_end = std::min(nf, k0 + kBlock);
        for (std::size_t j = window_j_begin(k0, nin); j < j_end; ++j) {
            if (f[j] == 0.0) continue;
            const double* src = window_src(in, k0, j);
#pragma GCC unroll 8
            for (std::size_t l = 0; l < kBlock; ++l) acc[l] += f[j] * src[l];
        }
        const std::size_t count = std::min(kBlock, width - k0);
        for (std::size_t l = 0; l < count; ++l) out[k0 + l] = acc[l];
    }
}

#if LIQUIDD_SIMD_X86

// ---------------------------------------------------------------- AVX2

/// All-ones 64-bit lanes for the first r (< 4) lanes, zero above.
__attribute__((target("avx2"))) inline __m256i avx2_head_mask(std::size_t r) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(r)),
                              _mm256_set_epi64x(3, 2, 1, 0));
}

__attribute__((target("avx2")))
void convolve_avx2(const double* __restrict in, double* __restrict out,
                   std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const __m256d vq = _mm256_set1_pd(q);
    const __m256d vp = _mm256_set1_pd(p);
    const std::size_t head = std::min(w, n);
    std::size_t s = 0;
    for (; s + 4 <= head; s += 4)
        _mm256_storeu_pd(out + s, _mm256_mul_pd(_mm256_loadu_pd(in + s), vq));
    if (s < head) {
        const __m256i m = avx2_head_mask(head - s);
        _mm256_maskstore_pd(out + s, m, _mm256_mul_pd(_mm256_maskload_pd(in + s, m), vq));
    }
    std::fill(out + head, out + w, 0.0);  // w > n only: the unreachable gap
    for (s = w; s + 4 <= n; s += 4) {
        const __m256d a = _mm256_mul_pd(_mm256_loadu_pd(in + s), vq);
        const __m256d b = _mm256_mul_pd(_mm256_loadu_pd(in + s - w), vp);
        _mm256_storeu_pd(out + s, _mm256_add_pd(a, b));
    }
    if (s < n) {
        const __m256i m = avx2_head_mask(n - s);
        const __m256d a = _mm256_mul_pd(_mm256_maskload_pd(in + s, m), vq);
        const __m256d b = _mm256_mul_pd(_mm256_maskload_pd(in + s - w, m), vp);
        _mm256_maskstore_pd(out + s, m, _mm256_add_pd(a, b));
    }
    for (s = std::max(n, w); s + 4 <= n + w; s += 4)
        _mm256_storeu_pd(out + s, _mm256_mul_pd(_mm256_loadu_pd(in + s - w), vp));
    if (s < n + w) {
        const __m256i m = avx2_head_mask(n + w - s);
        _mm256_maskstore_pd(out + s, m,
                            _mm256_mul_pd(_mm256_maskload_pd(in + s - w, m), vp));
    }
}

__attribute__((target("avx2")))
void window_convolve_avx2(const double* __restrict f, std::size_t nf,
                          const double* __restrict in, std::size_t nin,
                          double* __restrict out) {
    constexpr std::size_t kLanes = 4;
    constexpr std::size_t kRegs = 8;
    constexpr std::size_t kBlock = kLanes * kRegs;
    const std::size_t width = nf + nin - 1;
    for (std::size_t k0 = 0; k0 < width; k0 += kBlock) {
        __m256d acc[kRegs];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRegs; ++r) acc[r] = _mm256_setzero_pd();
        const std::size_t j_end = std::min(nf, k0 + kBlock);
        for (std::size_t j = window_j_begin(k0, nin); j < j_end; ++j) {
            if (f[j] == 0.0) continue;
            const __m256d vf = _mm256_set1_pd(f[j]);
            const double* src = window_src(in, k0, j);
#pragma GCC unroll 8
            for (std::size_t r = 0; r < kRegs; ++r) {
                const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(src + r * kLanes), vf);
                acc[r] = _mm256_add_pd(acc[r], prod);
            }
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRegs; ++r) {
            const std::size_t base = k0 + r * kLanes;
            if (base + kLanes <= width) {
                _mm256_storeu_pd(out + base, acc[r]);
            } else if (base < width) {
                _mm256_maskstore_pd(out + base, avx2_head_mask(width - base), acc[r]);
            }
        }
    }
}

// -------------------------------------------------------------- AVX-512

/// Mask selecting the first r (< 8) lanes.
inline __mmask8 avx512_head_mask(std::size_t r) {
    return static_cast<__mmask8>((1u << r) - 1u);
}

__attribute__((target("avx512f")))
void convolve_avx512(const double* __restrict in, double* __restrict out,
                     std::size_t n, std::size_t w, double p) {
    const double q = 1.0 - p;
    const __m512d vq = _mm512_set1_pd(q);
    const __m512d vp = _mm512_set1_pd(p);
    const std::size_t head = std::min(w, n);
    std::size_t s = 0;
    for (; s + 8 <= head; s += 8)
        _mm512_storeu_pd(out + s, _mm512_mul_pd(_mm512_loadu_pd(in + s), vq));
    if (s < head) {
        const __mmask8 m = avx512_head_mask(head - s);
        _mm512_mask_storeu_pd(out + s, m,
                              _mm512_mul_pd(_mm512_maskz_loadu_pd(m, in + s), vq));
    }
    std::fill(out + head, out + w, 0.0);  // w > n only: the unreachable gap
    for (s = w; s + 8 <= n; s += 8) {
        const __m512d a = _mm512_mul_pd(_mm512_loadu_pd(in + s), vq);
        const __m512d b = _mm512_mul_pd(_mm512_loadu_pd(in + s - w), vp);
        _mm512_storeu_pd(out + s, _mm512_add_pd(a, b));
    }
    if (s < n) {
        const __mmask8 m = avx512_head_mask(n - s);
        const __m512d a = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, in + s), vq);
        const __m512d b = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, in + s - w), vp);
        _mm512_mask_storeu_pd(out + s, m, _mm512_add_pd(a, b));
    }
    for (s = std::max(n, w); s + 8 <= n + w; s += 8)
        _mm512_storeu_pd(out + s, _mm512_mul_pd(_mm512_loadu_pd(in + s - w), vp));
    if (s < n + w) {
        const __mmask8 m = avx512_head_mask(n + w - s);
        _mm512_mask_storeu_pd(out + s, m,
                              _mm512_mul_pd(_mm512_maskz_loadu_pd(m, in + s - w), vp));
    }
}

__attribute__((target("avx512f")))
void window_convolve_avx512(const double* __restrict f, std::size_t nf,
                            const double* __restrict in, std::size_t nin,
                            double* __restrict out) {
    constexpr std::size_t kLanes = 8;
    constexpr std::size_t kRegs = 8;
    constexpr std::size_t kBlock = kLanes * kRegs;
    static_assert(kBlock <= kWindowPad + 1, "the zero pad must cover one block");
    const std::size_t width = nf + nin - 1;
    for (std::size_t k0 = 0; k0 < width; k0 += kBlock) {
        __m512d acc[kRegs];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRegs; ++r) acc[r] = _mm512_setzero_pd();
        const std::size_t j_end = std::min(nf, k0 + kBlock);
        for (std::size_t j = window_j_begin(k0, nin); j < j_end; ++j) {
            if (f[j] == 0.0) continue;
            const __m512d vf = _mm512_set1_pd(f[j]);
            const double* src = window_src(in, k0, j);
#pragma GCC unroll 8
            for (std::size_t r = 0; r < kRegs; ++r) {
                const __m512d prod = _mm512_mul_pd(_mm512_loadu_pd(src + r * kLanes), vf);
                acc[r] = _mm512_add_pd(acc[r], prod);
            }
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < kRegs; ++r) {
            const std::size_t base = k0 + r * kLanes;
            if (base + kLanes <= width) {
                _mm512_storeu_pd(out + base, acc[r]);
            } else if (base < width) {
                _mm512_mask_storeu_pd(out + base, avx512_head_mask(width - base), acc[r]);
            }
        }
    }
}

#endif  // LIQUIDD_SIMD_X86

// ------------------------------------------------------------- dispatch

struct KernelTable {
    support::SimdTier tier;
    ConvolveFn convolve;
    WindowConvolveFn window_convolve;
};

constexpr KernelTable kScalarTable{support::SimdTier::kScalar, &convolve_scalar_entry,
                                   &window_convolve_scalar};
#if LIQUIDD_SIMD_X86
constexpr KernelTable kAvx2Table{support::SimdTier::kAvx2, &convolve_avx2,
                                 &window_convolve_avx2};
constexpr KernelTable kAvx512Table{support::SimdTier::kAvx512, &convolve_avx512,
                                   &window_convolve_avx512};
#endif

const KernelTable* table_for(support::SimdTier tier) {
#if LIQUIDD_SIMD_X86
    if (tier == support::SimdTier::kAvx512) return &kAvx512Table;
    if (tier == support::SimdTier::kAvx2) return &kAvx2Table;
#endif
    (void)tier;
    return &kScalarTable;
}

std::atomic<const KernelTable*> g_table{nullptr};

void publish(const KernelTable* table) {
    support::MetricsRegistry::global()
        .gauge("tally.kernel")
        .set(static_cast<std::int64_t>(table->tier));
    g_table.store(table, std::memory_order_release);
}

/// First-use resolution: LIQUIDD_SIMD if set and runnable, else the
/// widest supported tier.  An unknown or unsupported env value warns
/// once and falls back to auto-detection (the CLI flag, by contrast,
/// errors out — see cli/runner.cpp).
const KernelTable* resolve() {
    support::SimdTier tier = support::best_simd_tier();
    if (const char* env = std::getenv("LIQUIDD_SIMD"); env != nullptr) {
        const auto parsed = support::parse_simd_tier(env);
        if (!parsed.has_value()) {
            std::fprintf(stderr,
                         "liquidd: ignoring unknown LIQUIDD_SIMD=%s "
                         "(expected auto|scalar|avx2|avx512)\n",
                         env);
        } else if (!support::simd_tier_supported(*parsed)) {
            std::fprintf(stderr,
                         "liquidd: LIQUIDD_SIMD=%s not supported on this host; "
                         "using %s\n",
                         env, support::simd_tier_name(tier));
        } else {
            tier = *parsed;
        }
    }
    return table_for(tier);
}

const KernelTable& active_table() {
    const KernelTable* table = g_table.load(std::memory_order_acquire);
    if (table != nullptr) return *table;
    static std::once_flag once;
    std::call_once(once, [] { publish(resolve()); });
    return *g_table.load(std::memory_order_acquire);
}

}  // namespace

ConvolveFn convolve_kernel() { return active_table().convolve; }

WindowConvolveFn window_convolve_kernel() { return active_table().window_convolve; }

}  // namespace detail

void convolve_two_point(const double* __restrict in, double* __restrict out,
                        std::size_t n, std::size_t w, double p) {
    detail::active_table().convolve(in, out, n, w, p);
}

support::SimdTier kernel_tier() { return detail::active_table().tier; }

bool set_kernel_tier(support::SimdTier tier) {
    if (!support::simd_tier_supported(tier)) return false;
    detail::publish(detail::table_for(tier));
    return true;
}

}  // namespace ld::prob
