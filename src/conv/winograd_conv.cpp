#include "conv/winograd_conv.hpp"

#include <algorithm>
#include <cstring>

#include "blas/gemm.hpp"
#include "core/cpu_features.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::conv {
namespace {

obs::Counter& fallback_counter() {
  static obs::Counter& c = obs::metrics().counter("conv.winograd.fallbacks");
  return c;
}

// ---------------------------------------------------------------------------
// Scalar transforms, strided: element e of the source lives at s[e * ss],
// element t of the destination at d[t * ds]. One function per (tile size,
// transform); each is a two-pass application of the defining matrix pair.
// Operation order is chosen once here and mirrored exactly by the AVX2
// versions, so both dispatch paths produce bit-identical results.
// ---------------------------------------------------------------------------

// F(2x2,3x3): B^T = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1]
void data_tf_f2(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[16];
  for (int col = 0; col < 4; ++col) {
    const float a0 = s[(0 * 4 + col) * ss];
    const float a1 = s[(1 * 4 + col) * ss];
    const float a2 = s[(2 * 4 + col) * ss];
    const float a3 = s[(3 * 4 + col) * ss];
    t[0 * 4 + col] = a0 - a2;
    t[1 * 4 + col] = a1 + a2;
    t[2 * 4 + col] = a2 - a1;
    t[3 * 4 + col] = a1 - a3;
  }
  for (int row = 0; row < 4; ++row) {
    const float a0 = t[row * 4 + 0];
    const float a1 = t[row * 4 + 1];
    const float a2 = t[row * 4 + 2];
    const float a3 = t[row * 4 + 3];
    d[(row * 4 + 0) * ds] = a0 - a2;
    d[(row * 4 + 1) * ds] = a1 + a2;
    d[(row * 4 + 2) * ds] = a2 - a1;
    d[(row * 4 + 3) * ds] = a1 - a3;
  }
}

// F(4x4,3x3): B^T = [4 0 -5 0 1 0; 0 -4 -4 1 1 0; 0 4 -4 -1 1 0;
//                    0 -2 -1 2 1 0; 0 2 -1 -2 1 0; 0 4 0 -5 0 1]
void data_tf_f4(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[36];
  for (int col = 0; col < 6; ++col) {
    const float a0 = s[(0 * 6 + col) * ss];
    const float a1 = s[(1 * 6 + col) * ss];
    const float a2 = s[(2 * 6 + col) * ss];
    const float a3 = s[(3 * 6 + col) * ss];
    const float a4 = s[(4 * 6 + col) * ss];
    const float a5 = s[(5 * 6 + col) * ss];
    t[0 * 6 + col] = (4.0F * a0 - 5.0F * a2) + a4;
    t[1 * 6 + col] = (a3 + a4) - 4.0F * (a1 + a2);
    t[2 * 6 + col] = 4.0F * (a1 - a2) + (a4 - a3);
    t[3 * 6 + col] = 2.0F * (a3 - a1) + (a4 - a2);
    t[4 * 6 + col] = 2.0F * (a1 - a3) + (a4 - a2);
    t[5 * 6 + col] = (4.0F * a1 - 5.0F * a3) + a5;
  }
  for (int row = 0; row < 6; ++row) {
    const float a0 = t[row * 6 + 0];
    const float a1 = t[row * 6 + 1];
    const float a2 = t[row * 6 + 2];
    const float a3 = t[row * 6 + 3];
    const float a4 = t[row * 6 + 4];
    const float a5 = t[row * 6 + 5];
    d[(row * 6 + 0) * ds] = (4.0F * a0 - 5.0F * a2) + a4;
    d[(row * 6 + 1) * ds] = (a3 + a4) - 4.0F * (a1 + a2);
    d[(row * 6 + 2) * ds] = 4.0F * (a1 - a2) + (a4 - a3);
    d[(row * 6 + 3) * ds] = 2.0F * (a3 - a1) + (a4 - a2);
    d[(row * 6 + 4) * ds] = 2.0F * (a1 - a3) + (a4 - a2);
    d[(row * 6 + 5) * ds] = (4.0F * a1 - 5.0F * a3) + a5;
  }
}

// F(2x2,3x3): G = [1 0 0; .5 .5 .5; .5 -.5 .5; 0 0 1]
void filter_tf_f2(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[12];
  for (int col = 0; col < 3; ++col) {
    const float g0 = s[(0 * 3 + col) * ss];
    const float g1 = s[(1 * 3 + col) * ss];
    const float g2 = s[(2 * 3 + col) * ss];
    t[0 * 3 + col] = g0;
    t[1 * 3 + col] = 0.5F * ((g0 + g1) + g2);
    t[2 * 3 + col] = 0.5F * ((g0 - g1) + g2);
    t[3 * 3 + col] = g2;
  }
  for (int row = 0; row < 4; ++row) {
    const float g0 = t[row * 3 + 0];
    const float g1 = t[row * 3 + 1];
    const float g2 = t[row * 3 + 2];
    d[(row * 4 + 0) * ds] = g0;
    d[(row * 4 + 1) * ds] = 0.5F * ((g0 + g1) + g2);
    d[(row * 4 + 2) * ds] = 0.5F * ((g0 - g1) + g2);
    d[(row * 4 + 3) * ds] = g2;
  }
}

// F(4x4,3x3): G = [1/4 0 0; -1/6 -1/6 -1/6; -1/6 1/6 -1/6;
//                  1/24 1/12 1/6; 1/24 -1/12 1/6; 0 0 1]
constexpr float kN6 = -1.0F / 6.0F;
constexpr float kP6 = 1.0F / 6.0F;
constexpr float kP12 = 1.0F / 12.0F;
constexpr float kP24 = 1.0F / 24.0F;

void filter_tf_f4(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[18];
  for (int col = 0; col < 3; ++col) {
    const float g0 = s[(0 * 3 + col) * ss];
    const float g1 = s[(1 * 3 + col) * ss];
    const float g2 = s[(2 * 3 + col) * ss];
    t[0 * 3 + col] = 0.25F * g0;
    t[1 * 3 + col] = kN6 * ((g0 + g1) + g2);
    t[2 * 3 + col] = kP6 * ((g1 - g0) - g2);
    t[3 * 3 + col] = (kP24 * g0 + kP12 * g1) + kP6 * g2;
    t[4 * 3 + col] = (kP24 * g0 - kP12 * g1) + kP6 * g2;
    t[5 * 3 + col] = g2;
  }
  for (int row = 0; row < 6; ++row) {
    const float g0 = t[row * 3 + 0];
    const float g1 = t[row * 3 + 1];
    const float g2 = t[row * 3 + 2];
    d[(row * 6 + 0) * ds] = 0.25F * g0;
    d[(row * 6 + 1) * ds] = kN6 * ((g0 + g1) + g2);
    d[(row * 6 + 2) * ds] = kP6 * ((g1 - g0) - g2);
    d[(row * 6 + 3) * ds] = (kP24 * g0 + kP12 * g1) + kP6 * g2;
    d[(row * 6 + 4) * ds] = (kP24 * g0 - kP12 * g1) + kP6 * g2;
    d[(row * 6 + 5) * ds] = g2;
  }
}

// F(2x2,3x3): A^T = [1 1 1 0; 0 1 -1 -1]
void output_tf_f2(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[8];
  for (int col = 0; col < 4; ++col) {
    const float m0 = s[(0 * 4 + col) * ss];
    const float m1 = s[(1 * 4 + col) * ss];
    const float m2 = s[(2 * 4 + col) * ss];
    const float m3 = s[(3 * 4 + col) * ss];
    t[0 * 4 + col] = (m0 + m1) + m2;
    t[1 * 4 + col] = (m1 - m2) - m3;
  }
  for (int row = 0; row < 2; ++row) {
    const float m0 = t[row * 4 + 0];
    const float m1 = t[row * 4 + 1];
    const float m2 = t[row * 4 + 2];
    const float m3 = t[row * 4 + 3];
    d[(row * 2 + 0) * ds] = (m0 + m1) + m2;
    d[(row * 2 + 1) * ds] = (m1 - m2) - m3;
  }
}

// F(4x4,3x3): A^T = [1 1 1 1 1 0; 0 1 -1 2 -2 0; 0 1 1 4 4 0;
//                    0 1 -1 8 -8 1]
void output_tf_f4(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[24];
  for (int col = 0; col < 6; ++col) {
    const float m0 = s[(0 * 6 + col) * ss];
    const float m1 = s[(1 * 6 + col) * ss];
    const float m2 = s[(2 * 6 + col) * ss];
    const float m3 = s[(3 * 6 + col) * ss];
    const float m4 = s[(4 * 6 + col) * ss];
    const float m5 = s[(5 * 6 + col) * ss];
    const float p1 = m1 + m2;
    const float p2 = m3 + m4;
    const float q1 = m1 - m2;
    const float q2 = m3 - m4;
    t[0 * 6 + col] = (m0 + p1) + p2;
    t[1 * 6 + col] = q1 + 2.0F * q2;
    t[2 * 6 + col] = p1 + 4.0F * p2;
    t[3 * 6 + col] = (q1 + 8.0F * q2) + m5;
  }
  for (int row = 0; row < 4; ++row) {
    const float m0 = t[row * 6 + 0];
    const float m1 = t[row * 6 + 1];
    const float m2 = t[row * 6 + 2];
    const float m3 = t[row * 6 + 3];
    const float m4 = t[row * 6 + 4];
    const float m5 = t[row * 6 + 5];
    const float p1 = m1 + m2;
    const float p2 = m3 + m4;
    const float q1 = m1 - m2;
    const float q2 = m3 - m4;
    d[(row * 4 + 0) * ds] = (m0 + p1) + p2;
    d[(row * 4 + 1) * ds] = q1 + 2.0F * q2;
    d[(row * 4 + 2) * ds] = p1 + 4.0F * p2;
    d[(row * 4 + 3) * ds] = (q1 + 8.0F * q2) + m5;
  }
}

// Backward-filter: dM = A dY A^T, the adjoint of the output transform.
// F(2x2,3x3): A (4x2) rows = (1,0), (1,1), (1,-1), (0,-1).
void grad_out_tf_f2(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[8];
  for (int col = 0; col < 2; ++col) {
    const float y0 = s[(0 * 2 + col) * ss];
    const float y1 = s[(1 * 2 + col) * ss];
    t[0 * 2 + col] = y0;
    t[1 * 2 + col] = y0 + y1;
    t[2 * 2 + col] = y0 - y1;
    t[3 * 2 + col] = -y1;
  }
  for (int row = 0; row < 4; ++row) {
    const float y0 = t[row * 2 + 0];
    const float y1 = t[row * 2 + 1];
    d[(row * 4 + 0) * ds] = y0;
    d[(row * 4 + 1) * ds] = y0 + y1;
    d[(row * 4 + 2) * ds] = y0 - y1;
    d[(row * 4 + 3) * ds] = -y1;
  }
}

// F(4x4,3x3): A (6x4) rows = (1,0,0,0), (1,1,1,1), (1,-1,1,-1),
// (1,2,4,8), (1,-2,4,-8), (0,0,0,1).
void grad_out_tf_f4(const float* s, std::size_t ss, float* d, std::size_t ds) {
  float t[24];
  for (int col = 0; col < 4; ++col) {
    const float y0 = s[(0 * 4 + col) * ss];
    const float y1 = s[(1 * 4 + col) * ss];
    const float y2 = s[(2 * 4 + col) * ss];
    const float y3 = s[(3 * 4 + col) * ss];
    t[0 * 4 + col] = y0;
    t[1 * 4 + col] = (y0 + y1) + (y2 + y3);
    t[2 * 4 + col] = (y0 - y1) + (y2 - y3);
    t[3 * 4 + col] = (y0 + 2.0F * y1) + (4.0F * y2 + 8.0F * y3);
    t[4 * 4 + col] = (y0 - 2.0F * y1) + (4.0F * y2 - 8.0F * y3);
    t[5 * 4 + col] = y3;
  }
  for (int row = 0; row < 6; ++row) {
    const float y0 = t[row * 4 + 0];
    const float y1 = t[row * 4 + 1];
    const float y2 = t[row * 4 + 2];
    const float y3 = t[row * 4 + 3];
    d[(row * 6 + 0) * ds] = y0;
    d[(row * 6 + 1) * ds] = (y0 + y1) + (y2 + y3);
    d[(row * 6 + 2) * ds] = (y0 - y1) + (y2 - y3);
    d[(row * 6 + 3) * ds] = (y0 + 2.0F * y1) + (4.0F * y2 + 8.0F * y3);
    d[(row * 6 + 4) * ds] = (y0 - 2.0F * y1) + (4.0F * y2 - 8.0F * y3);
    d[(row * 6 + 5) * ds] = y3;
  }
}

// Backward-filter: dg = G^T dU G, the adjoint of the filter transform.
void grad_filter_tf_f2(const float* s, std::size_t ss, float* d,
                       std::size_t ds) {
  float t[12];
  for (int col = 0; col < 4; ++col) {
    const float u0 = s[(0 * 4 + col) * ss];
    const float u1 = s[(1 * 4 + col) * ss];
    const float u2 = s[(2 * 4 + col) * ss];
    const float u3 = s[(3 * 4 + col) * ss];
    t[0 * 4 + col] = u0 + 0.5F * (u1 + u2);
    t[1 * 4 + col] = 0.5F * (u1 - u2);
    t[2 * 4 + col] = 0.5F * (u1 + u2) + u3;
  }
  for (int row = 0; row < 3; ++row) {
    const float u0 = t[row * 4 + 0];
    const float u1 = t[row * 4 + 1];
    const float u2 = t[row * 4 + 2];
    const float u3 = t[row * 4 + 3];
    d[(row * 3 + 0) * ds] = u0 + 0.5F * (u1 + u2);
    d[(row * 3 + 1) * ds] = 0.5F * (u1 - u2);
    d[(row * 3 + 2) * ds] = 0.5F * (u1 + u2) + u3;
  }
}

void grad_filter_tf_f4(const float* s, std::size_t ss, float* d,
                       std::size_t ds) {
  float t[18];
  for (int col = 0; col < 6; ++col) {
    const float u0 = s[(0 * 6 + col) * ss];
    const float u1 = s[(1 * 6 + col) * ss];
    const float u2 = s[(2 * 6 + col) * ss];
    const float u3 = s[(3 * 6 + col) * ss];
    const float u4 = s[(4 * 6 + col) * ss];
    const float u5 = s[(5 * 6 + col) * ss];
    t[0 * 6 + col] = (0.25F * u0 + kN6 * (u1 + u2)) + kP24 * (u3 + u4);
    t[1 * 6 + col] = kP6 * (u2 - u1) + kP12 * (u3 - u4);
    t[2 * 6 + col] = kP6 * ((u3 + u4) - (u1 + u2)) + u5;
  }
  for (int row = 0; row < 3; ++row) {
    const float u0 = t[row * 6 + 0];
    const float u1 = t[row * 6 + 1];
    const float u2 = t[row * 6 + 2];
    const float u3 = t[row * 6 + 3];
    const float u4 = t[row * 6 + 4];
    const float u5 = t[row * 6 + 5];
    d[(row * 3 + 0) * ds] = (0.25F * u0 + kN6 * (u1 + u2)) + kP24 * (u3 + u4);
    d[(row * 3 + 1) * ds] = kP6 * (u2 - u1) + kP12 * (u3 - u4);
    d[(row * 3 + 2) * ds] = kP6 * ((u3 + u4) - (u1 + u2)) + u5;
  }
}

// ---------------------------------------------------------------------------
// AVX2 transforms: 8 tiles at a time in SoA form — element e of the 8
// gathered tiles lives at b[e * 8 + lane], one __m256 per tile element.
// Same operation order as the scalar functions above (mul + add, no FMA
// contraction), so the two dispatch paths stay bit-identical.
// ---------------------------------------------------------------------------
#if GPUCNN_X86_SIMD

inline bool use_avx2() { return simd::active() == simd::Level::kAvx2; }

__attribute__((target("avx2"))) void data_tf8_f2_avx2(const float* b,
                                                      float* dst,
                                                      std::size_t ts) {
  __m256 t[16];
  for (int col = 0; col < 4; ++col) {
    const __m256 a0 = _mm256_loadu_ps(b + (0 * 4 + col) * 8);
    const __m256 a1 = _mm256_loadu_ps(b + (1 * 4 + col) * 8);
    const __m256 a2 = _mm256_loadu_ps(b + (2 * 4 + col) * 8);
    const __m256 a3 = _mm256_loadu_ps(b + (3 * 4 + col) * 8);
    t[0 * 4 + col] = _mm256_sub_ps(a0, a2);
    t[1 * 4 + col] = _mm256_add_ps(a1, a2);
    t[2 * 4 + col] = _mm256_sub_ps(a2, a1);
    t[3 * 4 + col] = _mm256_sub_ps(a1, a3);
  }
  for (int row = 0; row < 4; ++row) {
    const __m256 a0 = t[row * 4 + 0];
    const __m256 a1 = t[row * 4 + 1];
    const __m256 a2 = t[row * 4 + 2];
    const __m256 a3 = t[row * 4 + 3];
    _mm256_storeu_ps(dst + (row * 4 + 0) * ts, _mm256_sub_ps(a0, a2));
    _mm256_storeu_ps(dst + (row * 4 + 1) * ts, _mm256_add_ps(a1, a2));
    _mm256_storeu_ps(dst + (row * 4 + 2) * ts, _mm256_sub_ps(a2, a1));
    _mm256_storeu_ps(dst + (row * 4 + 3) * ts, _mm256_sub_ps(a1, a3));
  }
}

__attribute__((target("avx2"))) void data_tf8_f4_avx2(const float* b,
                                                      float* dst,
                                                      std::size_t ts) {
  const __m256 k2 = _mm256_set1_ps(2.0F);
  const __m256 k4 = _mm256_set1_ps(4.0F);
  const __m256 k5 = _mm256_set1_ps(5.0F);
  __m256 t[36];
  for (int col = 0; col < 6; ++col) {
    const __m256 a0 = _mm256_loadu_ps(b + (0 * 6 + col) * 8);
    const __m256 a1 = _mm256_loadu_ps(b + (1 * 6 + col) * 8);
    const __m256 a2 = _mm256_loadu_ps(b + (2 * 6 + col) * 8);
    const __m256 a3 = _mm256_loadu_ps(b + (3 * 6 + col) * 8);
    const __m256 a4 = _mm256_loadu_ps(b + (4 * 6 + col) * 8);
    const __m256 a5 = _mm256_loadu_ps(b + (5 * 6 + col) * 8);
    t[0 * 6 + col] = _mm256_add_ps(
        _mm256_sub_ps(_mm256_mul_ps(k4, a0), _mm256_mul_ps(k5, a2)), a4);
    t[1 * 6 + col] = _mm256_sub_ps(_mm256_add_ps(a3, a4),
                                   _mm256_mul_ps(k4, _mm256_add_ps(a1, a2)));
    t[2 * 6 + col] = _mm256_add_ps(_mm256_mul_ps(k4, _mm256_sub_ps(a1, a2)),
                                   _mm256_sub_ps(a4, a3));
    t[3 * 6 + col] = _mm256_add_ps(_mm256_mul_ps(k2, _mm256_sub_ps(a3, a1)),
                                   _mm256_sub_ps(a4, a2));
    t[4 * 6 + col] = _mm256_add_ps(_mm256_mul_ps(k2, _mm256_sub_ps(a1, a3)),
                                   _mm256_sub_ps(a4, a2));
    t[5 * 6 + col] = _mm256_add_ps(
        _mm256_sub_ps(_mm256_mul_ps(k4, a1), _mm256_mul_ps(k5, a3)), a5);
  }
  for (int row = 0; row < 6; ++row) {
    const __m256 a0 = t[row * 6 + 0];
    const __m256 a1 = t[row * 6 + 1];
    const __m256 a2 = t[row * 6 + 2];
    const __m256 a3 = t[row * 6 + 3];
    const __m256 a4 = t[row * 6 + 4];
    const __m256 a5 = t[row * 6 + 5];
    _mm256_storeu_ps(
        dst + (row * 6 + 0) * ts,
        _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(k4, a0), _mm256_mul_ps(k5, a2)), a4));
    _mm256_storeu_ps(dst + (row * 6 + 1) * ts,
                     _mm256_sub_ps(_mm256_add_ps(a3, a4),
                                   _mm256_mul_ps(k4, _mm256_add_ps(a1, a2))));
    _mm256_storeu_ps(dst + (row * 6 + 2) * ts,
                     _mm256_add_ps(_mm256_mul_ps(k4, _mm256_sub_ps(a1, a2)),
                                   _mm256_sub_ps(a4, a3)));
    _mm256_storeu_ps(dst + (row * 6 + 3) * ts,
                     _mm256_add_ps(_mm256_mul_ps(k2, _mm256_sub_ps(a3, a1)),
                                   _mm256_sub_ps(a4, a2)));
    _mm256_storeu_ps(dst + (row * 6 + 4) * ts,
                     _mm256_add_ps(_mm256_mul_ps(k2, _mm256_sub_ps(a1, a3)),
                                   _mm256_sub_ps(a4, a2)));
    _mm256_storeu_ps(
        dst + (row * 6 + 5) * ts,
        _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(k4, a1), _mm256_mul_ps(k5, a3)), a5));
  }
}

__attribute__((target("avx2"))) void filter_tf8_f2_avx2(const float* b,
                                                        float* dst,
                                                        std::size_t ts) {
  const __m256 kh = _mm256_set1_ps(0.5F);
  __m256 t[12];
  for (int col = 0; col < 3; ++col) {
    const __m256 g0 = _mm256_loadu_ps(b + (0 * 3 + col) * 8);
    const __m256 g1 = _mm256_loadu_ps(b + (1 * 3 + col) * 8);
    const __m256 g2 = _mm256_loadu_ps(b + (2 * 3 + col) * 8);
    t[0 * 3 + col] = g0;
    t[1 * 3 + col] =
        _mm256_mul_ps(kh, _mm256_add_ps(_mm256_add_ps(g0, g1), g2));
    t[2 * 3 + col] =
        _mm256_mul_ps(kh, _mm256_add_ps(_mm256_sub_ps(g0, g1), g2));
    t[3 * 3 + col] = g2;
  }
  for (int row = 0; row < 4; ++row) {
    const __m256 g0 = t[row * 3 + 0];
    const __m256 g1 = t[row * 3 + 1];
    const __m256 g2 = t[row * 3 + 2];
    _mm256_storeu_ps(dst + (row * 4 + 0) * ts, g0);
    _mm256_storeu_ps(
        dst + (row * 4 + 1) * ts,
        _mm256_mul_ps(kh, _mm256_add_ps(_mm256_add_ps(g0, g1), g2)));
    _mm256_storeu_ps(
        dst + (row * 4 + 2) * ts,
        _mm256_mul_ps(kh, _mm256_add_ps(_mm256_sub_ps(g0, g1), g2)));
    _mm256_storeu_ps(dst + (row * 4 + 3) * ts, g2);
  }
}

__attribute__((target("avx2"))) void filter_tf8_f4_avx2(const float* b,
                                                        float* dst,
                                                        std::size_t ts) {
  const __m256 kq = _mm256_set1_ps(0.25F);
  const __m256 kn6 = _mm256_set1_ps(kN6);
  const __m256 kp6 = _mm256_set1_ps(kP6);
  const __m256 kp12 = _mm256_set1_ps(kP12);
  const __m256 kp24 = _mm256_set1_ps(kP24);
  __m256 t[18];
  for (int col = 0; col < 3; ++col) {
    const __m256 g0 = _mm256_loadu_ps(b + (0 * 3 + col) * 8);
    const __m256 g1 = _mm256_loadu_ps(b + (1 * 3 + col) * 8);
    const __m256 g2 = _mm256_loadu_ps(b + (2 * 3 + col) * 8);
    t[0 * 3 + col] = _mm256_mul_ps(kq, g0);
    t[1 * 3 + col] =
        _mm256_mul_ps(kn6, _mm256_add_ps(_mm256_add_ps(g0, g1), g2));
    t[2 * 3 + col] =
        _mm256_mul_ps(kp6, _mm256_sub_ps(_mm256_sub_ps(g1, g0), g2));
    t[3 * 3 + col] = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(kp24, g0), _mm256_mul_ps(kp12, g1)),
        _mm256_mul_ps(kp6, g2));
    t[4 * 3 + col] = _mm256_add_ps(
        _mm256_sub_ps(_mm256_mul_ps(kp24, g0), _mm256_mul_ps(kp12, g1)),
        _mm256_mul_ps(kp6, g2));
    t[5 * 3 + col] = g2;
  }
  for (int row = 0; row < 6; ++row) {
    const __m256 g0 = t[row * 3 + 0];
    const __m256 g1 = t[row * 3 + 1];
    const __m256 g2 = t[row * 3 + 2];
    _mm256_storeu_ps(dst + (row * 6 + 0) * ts, _mm256_mul_ps(kq, g0));
    _mm256_storeu_ps(
        dst + (row * 6 + 1) * ts,
        _mm256_mul_ps(kn6, _mm256_add_ps(_mm256_add_ps(g0, g1), g2)));
    _mm256_storeu_ps(
        dst + (row * 6 + 2) * ts,
        _mm256_mul_ps(kp6, _mm256_sub_ps(_mm256_sub_ps(g1, g0), g2)));
    _mm256_storeu_ps(
        dst + (row * 6 + 3) * ts,
        _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(kp24, g0), _mm256_mul_ps(kp12, g1)),
            _mm256_mul_ps(kp6, g2)));
    _mm256_storeu_ps(
        dst + (row * 6 + 4) * ts,
        _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(kp24, g0), _mm256_mul_ps(kp12, g1)),
            _mm256_mul_ps(kp6, g2)));
    _mm256_storeu_ps(dst + (row * 6 + 5) * ts, g2);
  }
}

__attribute__((target("avx2"))) void output_tf8_f2_avx2(const float* msrc,
                                                        std::size_t ts,
                                                        float* y) {
  __m256 t[8];
  for (int col = 0; col < 4; ++col) {
    const __m256 m0 = _mm256_loadu_ps(msrc + (0 * 4 + col) * ts);
    const __m256 m1 = _mm256_loadu_ps(msrc + (1 * 4 + col) * ts);
    const __m256 m2 = _mm256_loadu_ps(msrc + (2 * 4 + col) * ts);
    const __m256 m3 = _mm256_loadu_ps(msrc + (3 * 4 + col) * ts);
    t[0 * 4 + col] = _mm256_add_ps(_mm256_add_ps(m0, m1), m2);
    t[1 * 4 + col] = _mm256_sub_ps(_mm256_sub_ps(m1, m2), m3);
  }
  for (int row = 0; row < 2; ++row) {
    const __m256 m0 = t[row * 4 + 0];
    const __m256 m1 = t[row * 4 + 1];
    const __m256 m2 = t[row * 4 + 2];
    const __m256 m3 = t[row * 4 + 3];
    _mm256_storeu_ps(y + (row * 2 + 0) * 8,
                     _mm256_add_ps(_mm256_add_ps(m0, m1), m2));
    _mm256_storeu_ps(y + (row * 2 + 1) * 8,
                     _mm256_sub_ps(_mm256_sub_ps(m1, m2), m3));
  }
}

__attribute__((target("avx2"))) void output_tf8_f4_avx2(const float* msrc,
                                                        std::size_t ts,
                                                        float* y) {
  const __m256 k2 = _mm256_set1_ps(2.0F);
  const __m256 k4 = _mm256_set1_ps(4.0F);
  const __m256 k8 = _mm256_set1_ps(8.0F);
  __m256 t[24];
  for (int col = 0; col < 6; ++col) {
    const __m256 m0 = _mm256_loadu_ps(msrc + (0 * 6 + col) * ts);
    const __m256 m1 = _mm256_loadu_ps(msrc + (1 * 6 + col) * ts);
    const __m256 m2 = _mm256_loadu_ps(msrc + (2 * 6 + col) * ts);
    const __m256 m3 = _mm256_loadu_ps(msrc + (3 * 6 + col) * ts);
    const __m256 m4 = _mm256_loadu_ps(msrc + (4 * 6 + col) * ts);
    const __m256 m5 = _mm256_loadu_ps(msrc + (5 * 6 + col) * ts);
    const __m256 p1 = _mm256_add_ps(m1, m2);
    const __m256 p2 = _mm256_add_ps(m3, m4);
    const __m256 q1 = _mm256_sub_ps(m1, m2);
    const __m256 q2 = _mm256_sub_ps(m3, m4);
    t[0 * 6 + col] = _mm256_add_ps(_mm256_add_ps(m0, p1), p2);
    t[1 * 6 + col] = _mm256_add_ps(q1, _mm256_mul_ps(k2, q2));
    t[2 * 6 + col] = _mm256_add_ps(p1, _mm256_mul_ps(k4, p2));
    t[3 * 6 + col] =
        _mm256_add_ps(_mm256_add_ps(q1, _mm256_mul_ps(k8, q2)), m5);
  }
  for (int row = 0; row < 4; ++row) {
    const __m256 m0 = t[row * 6 + 0];
    const __m256 m1 = t[row * 6 + 1];
    const __m256 m2 = t[row * 6 + 2];
    const __m256 m3 = t[row * 6 + 3];
    const __m256 m4 = t[row * 6 + 4];
    const __m256 m5 = t[row * 6 + 5];
    const __m256 p1 = _mm256_add_ps(m1, m2);
    const __m256 p2 = _mm256_add_ps(m3, m4);
    const __m256 q1 = _mm256_sub_ps(m1, m2);
    const __m256 q2 = _mm256_sub_ps(m3, m4);
    _mm256_storeu_ps(y + (row * 4 + 0) * 8,
                     _mm256_add_ps(_mm256_add_ps(m0, p1), p2));
    _mm256_storeu_ps(y + (row * 4 + 1) * 8,
                     _mm256_add_ps(q1, _mm256_mul_ps(k2, q2)));
    _mm256_storeu_ps(y + (row * 4 + 2) * 8,
                     _mm256_add_ps(p1, _mm256_mul_ps(k4, p2)));
    _mm256_storeu_ps(
        y + (row * 4 + 3) * 8,
        _mm256_add_ps(_mm256_add_ps(q1, _mm256_mul_ps(k8, q2)), m5));
  }
}

#endif  // GPUCNN_X86_SIMD

// ---------------------------------------------------------------------------
// Scattered-GEMM driver
// ---------------------------------------------------------------------------

struct Geometry {
  std::size_t alpha;      ///< input tile side (4 or 6)
  std::size_t m;          ///< output tile side (2 or 4)
  std::size_t positions;  ///< alpha^2 tile positions = GEMM count
  std::size_t o;          ///< output spatial side
  std::size_t in;         ///< input spatial side
  std::size_t pad;
  std::size_t tiles;      ///< tiles per spatial side
  std::size_t per_image;  ///< tiles^2
  std::size_t patches;    ///< batch * tiles^2 = GEMM n extent
  std::size_t block;      ///< patch-block size (multiple of 8)
  std::size_t channels;
  std::size_t filters;
};

Geometry make_geometry(const ConvConfig& cfg, WinogradTile tile) {
  Geometry g{};
  g.alpha = tile == WinogradTile::kF2 ? 4 : 6;
  g.m = g.alpha - 2;
  g.positions = g.alpha * g.alpha;
  g.o = cfg.output();
  g.in = cfg.input;
  g.pad = cfg.pad;
  g.tiles = (g.o + g.m - 1) / g.m;
  g.per_image = g.tiles * g.tiles;
  g.patches = cfg.batch * g.per_image;
  g.channels = cfg.channels;
  g.filters = cfg.filters;
  // Block the patch dimension so the V and M planes — positions *
  // (C + F) * block floats — stay within a fixed workspace budget.
  // Multiples of 8 keep the SIMD strips inside the block edge.
  constexpr std::size_t kWorkspaceBudget = 8U << 20U;
  std::size_t block =
      kWorkspaceBudget /
      (sizeof(float) * g.positions * (g.channels + g.filters));
  block = std::min(block, (g.patches + 7) / 8 * 8);
  g.block = std::max<std::size_t>(block / 8 * 8, 8);
  return g;
}

/// Scatters one patch block of the input through V = B^T d B into the
/// SoA planes v[t][c][p] (plane stride C * block).
void scatter_data_transform(const Geometry& g, WinogradTile tile,
                            const Tensor& input, std::size_t p0,
                            std::size_t pb, float* v) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.channels * g.block;
  parallel_for(0, g.channels * groups8, [&](std::size_t unit) {
    const std::size_t c = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    alignas(32) float buf[36 * 8];
    std::memset(buf, 0, g.positions * 8 * sizeof(float));
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const float* plane = input.plane(p / g.per_image, c);
      const long iy0 = static_cast<long>(r / g.tiles * g.m) -
                       static_cast<long>(g.pad);
      const long ix0 = static_cast<long>(r % g.tiles * g.m) -
                       static_cast<long>(g.pad);
      const long dy_lo = std::max(0L, -iy0);
      const long dy_hi =
          std::min<long>(static_cast<long>(g.alpha),
                         static_cast<long>(g.in) - iy0);
      const long dx_lo = std::max(0L, -ix0);
      const long dx_hi =
          std::min<long>(static_cast<long>(g.alpha),
                         static_cast<long>(g.in) - ix0);
      for (long dy = dy_lo; dy < dy_hi; ++dy) {
        const float* row = plane + (iy0 + dy) * static_cast<long>(g.in) + ix0;
        for (long dx = dx_lo; dx < dx_hi; ++dx) {
          buf[(static_cast<std::size_t>(dy) * g.alpha +
               static_cast<std::size_t>(dx)) *
                  8 +
              lane] = row[dx];
        }
      }
    }
    float* dst = v + c * g.block + pl;
#if GPUCNN_X86_SIMD
    if (use_avx2()) {
      if (tile == WinogradTile::kF2) {
        data_tf8_f2_avx2(buf, dst, ts);
      } else {
        data_tf8_f4_avx2(buf, dst, ts);
      }
      return;
    }
#endif
    for (std::size_t lane = 0; lane < 8; ++lane) {
      if (tile == WinogradTile::kF2) {
        data_tf_f2(buf + lane, 8, dst + lane, ts);
      } else {
        data_tf_f4(buf + lane, 8, dst + lane, ts);
      }
    }
  });
}

/// Transforms every filter through U = G g G^T into u[t][f][c]
/// (plane stride F * C).
void transform_filters(const Geometry& g, WinogradTile tile,
                       const Tensor& filters, float* u) {
  const std::size_t groups8 = (g.channels + 7) / 8;
  const std::size_t ts = g.filters * g.channels;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t c0 = (unit % groups8) * 8;
    const std::size_t lanes = std::min<std::size_t>(8, g.channels - c0);
    alignas(32) float buf[9 * 8];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const float* gsrc = filters.plane(f, c0 + lane);
      for (std::size_t e = 0; e < 9; ++e) buf[e * 8 + lane] = gsrc[e];
    }
    float* dst = u + f * g.channels + c0;
#if GPUCNN_X86_SIMD
    if (lanes == 8 && use_avx2()) {
      if (tile == WinogradTile::kF2) {
        filter_tf8_f2_avx2(buf, dst, ts);
      } else {
        filter_tf8_f4_avx2(buf, dst, ts);
      }
      return;
    }
#endif
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (tile == WinogradTile::kF2) {
        filter_tf_f2(buf + lane, 8, dst + lane, ts);
      } else {
        filter_tf_f4(buf + lane, 8, dst + lane, ts);
      }
    }
  });
}

/// Gathers one patch block of the product planes m[t][f][p] through
/// Y = A^T m A and scatters the (clipped) m x m output tiles, fusing the
/// bias broadcast and ReLU clamp into the write-back. Addition and max
/// round identically here and in the unfused passes, so fused and
/// unfused results are bit-identical.
void gather_output_transform(const Geometry& g, WinogradTile tile,
                             const float* mbuf, std::size_t p0,
                             std::size_t pb, const float* bias, bool relu,
                             Tensor& output) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.filters * g.block;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    const float* msrc = mbuf + f * g.block + pl;
    alignas(32) float y[16 * 8];
#if GPUCNN_X86_SIMD
    if (use_avx2()) {
      if (tile == WinogradTile::kF2) {
        output_tf8_f2_avx2(msrc, ts, y);
      } else {
        output_tf8_f4_avx2(msrc, ts, y);
      }
    } else
#endif
    {
      for (std::size_t lane = 0; lane < 8; ++lane) {
        if (tile == WinogradTile::kF2) {
          output_tf_f2(msrc + lane, ts, y + lane, 8);
        } else {
          output_tf_f4(msrc + lane, ts, y + lane, 8);
        }
      }
    }
    const float b = bias != nullptr ? bias[f] : 0.0F;
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const std::size_t ty = r / g.tiles;
      const std::size_t tx = r % g.tiles;
      float* out_plane = output.plane(p / g.per_image, f);
      for (std::size_t dy = 0; dy < g.m; ++dy) {
        const std::size_t oy = ty * g.m + dy;
        if (oy >= g.o) break;
        for (std::size_t dx = 0; dx < g.m; ++dx) {
          const std::size_t ox = tx * g.m + dx;
          if (ox >= g.o) break;
          float val = y[(dy * g.m + dx) * 8 + lane];
          if (bias != nullptr) val += b;
          if (relu) val = std::max(val, 0.0F);
          out_plane[oy * g.o + ox] = val;
        }
      }
    }
  });
}

/// Scatters one patch block of grad_output through dM = A dY A^T (the
/// output transform's adjoint) into dm[t][f][p]; tile overhang past the
/// output edge contributes zero.
void scatter_grad_transform(const Geometry& g, WinogradTile tile,
                            const Tensor& grad_output, std::size_t p0,
                            std::size_t pb, float* dm) {
  const std::size_t groups8 = (pb + 7) / 8;
  const std::size_t ts = g.filters * g.block;
  parallel_for(0, g.filters * groups8, [&](std::size_t unit) {
    const std::size_t f = unit / groups8;
    const std::size_t pl = (unit % groups8) * 8;
    alignas(32) float buf[16 * 8];
    std::memset(buf, 0, g.m * g.m * 8 * sizeof(float));
    const std::size_t lanes = std::min<std::size_t>(8, pb - pl);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t p = p0 + pl + lane;
      const std::size_t r = p % g.per_image;
      const std::size_t ty = r / g.tiles;
      const std::size_t tx = r % g.tiles;
      const float* plane = grad_output.plane(p / g.per_image, f);
      for (std::size_t dy = 0; dy < g.m; ++dy) {
        const std::size_t oy = ty * g.m + dy;
        if (oy >= g.o) break;
        for (std::size_t dx = 0; dx < g.m; ++dx) {
          const std::size_t ox = tx * g.m + dx;
          if (ox >= g.o) break;
          buf[(dy * g.m + dx) * 8 + lane] = plane[oy * g.o + ox];
        }
      }
    }
    float* dst = dm + f * g.block + pl;
    for (std::size_t lane = 0; lane < 8; ++lane) {
      if (tile == WinogradTile::kF2) {
        grad_out_tf_f2(buf + lane, 8, dst + lane, ts);
      } else {
        grad_out_tf_f4(buf + lane, 8, dst + lane, ts);
      }
    }
  });
}

/// The multiply stage: one (F x C) x (C x pb) sgemm per tile position,
/// from prepacked panels when available.
void multiply_stage(const Geometry& g, const float* u,
                    const std::vector<blas::PackedMatrix>* panels,
                    const float* v, float* m, std::size_t pb) {
  const std::size_t vplane = g.channels * g.block;
  const std::size_t mplane = g.filters * g.block;
  for (std::size_t t = 0; t < g.positions; ++t) {
    const std::span<const float> vt{v + t * vplane, vplane};
    const std::span<float> mt{m + t * mplane, mplane};
    if (panels != nullptr) {
      blas::sgemm_prepacked(g.filters, pb, g.channels, 1.0F, (*panels)[t],
                            blas::Trans::kNo, vt, g.block, 0.0F, mt, g.block);
    } else {
      blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, g.filters, pb,
                  g.channels, 1.0F,
                  {u + t * g.filters * g.channels, g.filters * g.channels},
                  g.channels, vt, g.block, 0.0F, mt, g.block);
    }
  }
}

}  // namespace

void WinogradConv::run_forward(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& filters, Tensor& output,
                               const Epilogue& epilogue) const {
  const PackedFilters* packed =
      own_pack(epilogue, winograd_positions(tile_));
  if (epilogue.packed != nullptr && (packed == nullptr || !packed->fresh())) {
    // Another engine's pack (GEMM panels, or the other tile size)
    // degrades to the transform-on-the-fly path; a stale own pack
    // (SIMD dispatch changed since packing) makes sgemm_prepacked stage
    // each panel's origin per call — correct, but the slow path.
    fallback_counter().add(1);
  }
  const std::vector<blas::PackedMatrix>* panels =
      packed != nullptr ? &packed->panels : nullptr;
  const float* bias = epilogue.bias.empty() ? nullptr : epilogue.bias.data();
  const Geometry g = make_geometry(cfg, tile_);
  ws::Scratch<float> v(g.positions * g.channels * g.block);
  ws::Scratch<float> m(g.positions * g.filters * g.block);
  ws::Scratch<float> u(panels != nullptr
                           ? 1
                           : g.positions * g.filters * g.channels);
  if (panels == nullptr) transform_filters(g, tile_, filters, u.data());
  for (std::size_t p0 = 0; p0 < g.patches; p0 += g.block) {
    const std::size_t pb = std::min(g.block, g.patches - p0);
    scatter_data_transform(g, tile_, input, p0, pb, v.data());
    multiply_stage(g, u.data(), panels, v.data(), m.data(), pb);
    gather_output_transform(g, tile_, m.data(), p0, pb, bias, epilogue.relu,
                            output);
  }
}

void WinogradConv::backward_data(const ConvConfig& cfg,
                                 const Tensor& grad_output,
                                 const Tensor& filters,
                                 Tensor& grad_input) const {
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(grad_input.shape() == cfg.input_shape(), "grad_input shape mismatch");
  check(supports(cfg),
        "Winograd F(m,3) requires kernel 3, stride 1, pad <= 2, ungrouped");

  // The data gradient of a stride-1 3x3 correlation is itself a stride-1
  // 3x3 correlation: gin = corr(gout, rot180(W)^T) with padding 2 - p.
  ConvConfig back = cfg;
  back.input = cfg.output();
  back.channels = cfg.filters;
  back.filters = cfg.channels;
  back.pad = 2 - cfg.pad;
  check(back.output() == cfg.input, "winograd backward geometry mismatch");

  Tensor rotated(back.filter_shape());
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    for (std::size_t f = 0; f < cfg.filters; ++f) {
      for (std::size_t ky = 0; ky < 3; ++ky) {
        for (std::size_t kx = 0; kx < 3; ++kx) {
          rotated(c, f, ky, kx) = filters(f, c, 2 - ky, 2 - kx);
        }
      }
    }
  }
  forward(back, grad_output, rotated, grad_input);
}

void WinogradConv::backward_filter(const ConvConfig& cfg, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_filters) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(grad_output.shape() == cfg.output_shape(),
        "grad_output shape mismatch");
  check(grad_filters.shape() == cfg.filter_shape(),
        "grad_filters shape mismatch");
  check(supports(cfg),
        "Winograd F(m,3) requires kernel 3, stride 1, pad <= 2, ungrouped");

  // Transpose formulation: with M_t = U_t V_t in the forward,
  //   dU_t = dM_t V_t^T   (F x C, accumulated over patch blocks),
  //   dg   = G^T dU G     (the filter transform's adjoint).
  const Geometry g = make_geometry(cfg, tile_);
  ws::Scratch<float> v(g.positions * g.channels * g.block);
  ws::Scratch<float> dm(g.positions * g.filters * g.block);
  ws::Scratch<float> du(g.positions * g.filters * g.channels);
  const std::size_t uplane = g.filters * g.channels;
  for (std::size_t p0 = 0; p0 < g.patches; p0 += g.block) {
    const std::size_t pb = std::min(g.block, g.patches - p0);
    scatter_data_transform(g, tile_, input, p0, pb, v.data());
    scatter_grad_transform(g, tile_, grad_output, p0, pb, dm.data());
    const float beta = p0 == 0 ? 0.0F : 1.0F;
    for (std::size_t t = 0; t < g.positions; ++t) {
      blas::sgemm(blas::Trans::kNo, blas::Trans::kYes, g.filters, g.channels,
                  pb, 1.0F,
                  {dm.data() + t * g.filters * g.block, g.filters * g.block},
                  g.block,
                  {v.data() + t * g.channels * g.block, g.channels * g.block},
                  g.block, beta, {du.data() + t * uplane, uplane},
                  g.channels);
    }
  }
  parallel_for(0, g.filters * g.channels, [&](std::size_t i) {
    const std::size_t f = i / g.channels;
    const std::size_t c = i % g.channels;
    float ubuf[36];
    for (std::size_t t = 0; t < g.positions; ++t) {
      ubuf[t] = du.data()[t * uplane + f * g.channels + c];
    }
    float* gout = grad_filters.plane(f, c);
    if (tile_ == WinogradTile::kF2) {
      grad_filter_tf_f2(ubuf, 1, gout, 1);
    } else {
      grad_filter_tf_f4(ubuf, 1, gout, 1);
    }
  });
}

std::shared_ptr<const PackedFilters> WinogradConv::prepack(
    const ConvConfig& cfg, const Tensor& filters) const {
  if (!supports(cfg)) return nullptr;
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  const Geometry g = make_geometry(cfg, tile_);
  const std::size_t uplane = g.filters * g.channels;
  auto packed = std::make_shared<PackedFilters>();
  packed->format = name();
  packed->source = filters.data().data();
  packed->transformed.assign(g.positions * uplane, 0.0F);
  transform_filters(g, tile_, filters, packed->transformed.data());
  packed->panels.reserve(g.positions);
  for (std::size_t t = 0; t < g.positions; ++t) {
    packed->panels.push_back(blas::pack_a(
        blas::Trans::kNo, g.filters, g.channels,
        {packed->transformed.data() + t * uplane, uplane}, g.channels));
  }
  return packed;
}

namespace wino_detail {

void transform_data(WinogradTile tile, const float* d, float* v) {
  if (tile == WinogradTile::kF2) {
    data_tf_f2(d, 1, v, 1);
  } else {
    data_tf_f4(d, 1, v, 1);
  }
}

void transform_filter(WinogradTile tile, const float* g, float* u) {
  if (tile == WinogradTile::kF2) {
    filter_tf_f2(g, 1, u, 1);
  } else {
    filter_tf_f4(g, 1, u, 1);
  }
}

void transform_output(WinogradTile tile, const float* m, float* y) {
  if (tile == WinogradTile::kF2) {
    output_tf_f2(m, 1, y, 1);
  } else {
    output_tf_f4(m, 1, y, 1);
  }
}

}  // namespace wino_detail

}  // namespace gpucnn::conv
