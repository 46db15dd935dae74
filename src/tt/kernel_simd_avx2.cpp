// AVX2 kernel variant: S∩T_i / S−T_i computed in registers,
// hardware-gathered table reads, vector blend min/argmin.
//
// Lane discipline — the whole correctness argument in one paragraph: each
// vector LANE owns one STATE, and actions are walked in the same ascending
// order as the scalar reference with the same strict-< blend. Every lane
// therefore performs the identical sequence of IEEE operations — the
// multiply/add association of m_test_value/m_treat_value, the validity
// select, the running-min compare — that the scalar tile performs for that
// state, so cost/best_action come out byte-identical by construction, ties
// included (lowest action index wins because a later equal value fails the
// strict <). Remainder states (count % 4) go through the scalar tile
// itself (docs/kernel.md has the longer proof sketch).
//
// Build contract (src/CMakeLists.txt): this TU alone is compiled with
// -mavx2 -ffp-contract=off. -mavx2 does NOT enable FMA, and contraction is
// off besides, so the multiply/add sequence rounds exactly like the scalar
// path — a silent fused multiply-add here would break byte-identity.
// Dispatch guarantees this code only runs after __builtin_cpu_supports
// ("avx2") says yes, so the shipped binary stays portable.
#if defined(TTP_KERNEL_HAS_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "tt/kernel.hpp"

namespace ttp::tt::detail {
namespace {

/// All-lanes gather with an explicit zero source operand. Identical
/// codegen to the plain intrinsic (vgatherdpd always takes a mask), but
/// GCC's plain _mm256_i32gather_pd leaves the source undefined, which
/// trips -Wmaybe-uninitialized.
inline __m256d gather_pd(const double* p, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), p, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

/// cost/best writeback for four lanes (AVX2 has gathers but no scatters).
inline void store_lanes(const Mask* states, std::size_t t, __m256d bv,
                        __m256i bi, double* cost, int* best) {
  alignas(32) double bva[4];
  alignas(32) long long bia[4];
  _mm256_store_pd(bva, bv);
  _mm256_store_si256(reinterpret_cast<__m256i*>(bia), bi);
  for (std::size_t l = 0; l < 4; ++l) {
    cost[states[t + l]] = bva[l];
    best[states[t + l]] = static_cast<int>(bia[l]);
  }
}

/// M[S,i] + validity select for four states (lanes of s4/iv/mv). The exact
/// lane-for-lane arithmetic of the scalar loop: (t_i·p(S) + C(S∩T_i)) +
/// C(S−T_i) — m_test_value association — then the invalid-split select.
inline __m256d action_value_4(const double* cost, __m256d tc, __m256d ps,
                              __m128i iv, __m128i mv, bool test,
                              __m256d vinf) {
  const __m128i zero = _mm_setzero_si128();
  const __m256d cm = gather_pd(cost, mv);
  __m256d v;
  __m128i bad32;
  if (test) {
    const __m256d ci = gather_pd(cost, iv);
    v = _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(tc, ps), ci), cm);
    bad32 =
        _mm_or_si128(_mm_cmpeq_epi32(iv, zero), _mm_cmpeq_epi32(mv, zero));
  } else {
    v = _mm256_add_pd(_mm256_mul_pd(tc, ps), cm);
    bad32 = _mm_cmpeq_epi32(iv, zero);
  }
  const __m256d bad = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(bad32));
  return _mm256_blendv_pd(v, vinf, bad);
}

/// Strict ordered <, the scalar update verbatim: ties keep the earlier
/// (lower) action index.
inline void min_update_4(__m256d v, int i, __m256d& bv, __m256i& bi) {
  const __m256d lt = _mm256_cmp_pd(v, bv, _CMP_LT_OQ);
  bv = _mm256_blendv_pd(bv, v, lt);
  bi = _mm256_blendv_epi8(bi, _mm256_set1_epi64x(i), _mm256_castpd_si256(lt));
}

/// 4·U states starting at states[t]: U independent four-lane running-min
/// chains walked through every action. One chain's cmp/blend tail is a
/// short dependency chain that leaves the gather units idle between
/// actions; U chains overlap each other's gathers with the others'
/// arithmetic. U is a compile-time constant so the c-loops fully unroll
/// and each chain's ps/bv/bi live in their own registers.
template <int U>
inline void eval_chains(const ActionSoA& a, const double* wt,
                        const Mask* states, std::size_t t, double* cost,
                        int* best, __m256d vinf) {
  __m128i s[U];
  __m256d ps[U], bv[U];
  __m256i bi[U];
  for (int c = 0; c < U; ++c) {
    s[c] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(states + t + 4 * c));
    ps[c] = gather_pd(wt, s[c]);
    bv[c] = vinf;
    bi[c] = _mm256_set1_epi64x(-1);
  }
  for (int i = 0; i < a.num_actions; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    __m128i iv[U], mv[U];
    const __m128i ts = _mm_set1_epi32(static_cast<int>(a.set[ui]));
    const __m128i tn = _mm_set1_epi32(static_cast<int>(a.nset[ui]));
    for (int c = 0; c < U; ++c) {
      iv[c] = _mm_and_si128(s[c], ts);
      mv[c] = _mm_and_si128(s[c], tn);
    }
    const __m256d tc = _mm256_set1_pd(a.cost[ui]);
    const bool test = i < a.num_tests;
    __m256d v[U];
    for (int c = 0; c < U; ++c) {
      v[c] = action_value_4(cost, tc, ps[c], iv[c], mv[c], test, vinf);
    }
    for (int c = 0; c < U; ++c) {
      min_update_4(v[c], i, bv[c], bi[c]);
    }
  }
  for (int c = 0; c < U; ++c) {
    store_lanes(states, t + 4 * c, bv[c], bi[c], cost, best);
  }
}

}  // namespace

void eval_states_avx2(const ActionSoA& a, const double* wt,
                      const Mask* states, std::size_t count, double* cost,
                      int* best) {
  const __m256d vinf = _mm256_set1_pd(kInf);
  std::size_t t = 0;
  for (; t + 16 <= count; t += 16) {
    eval_chains<4>(a, wt, states, t, cost, best, vinf);
  }
  for (; t + 8 <= count; t += 8) {
    eval_chains<2>(a, wt, states, t, cost, best, vinf);
  }
  for (; t + 4 <= count; t += 4) {
    eval_chains<1>(a, wt, states, t, cost, best, vinf);
  }
  if (t < count) {
    eval_tile_scalar(a, wt, states + t, count - t, cost, best);
  }
}

}  // namespace ttp::tt::detail

#endif  // TTP_KERNEL_HAS_AVX2
