// Fixture: raw SIMD intrinsics.  Every line below must trip vcopt-raw-simd
// — the placement kernels are scalar loops, and intrinsics are banned
// everywhere.
//
// Lines 8-14 are position-sensitive: tools/lint_selftest.py asserts the
// exact (line, rule) pairs.

#include <emmintrin.h>
#include <arm_neon.h>

void bad_simd_fixture(const int* a, int n) {
  __m128i acc;
  acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  int32x4_t neon_acc = vld1q_s32(a);
  (void)n;
  (void)acc;
  (void)neon_acc;
}

// Suppressed with a justification: stays silent.
// NOLINT(vcopt-raw-simd) example: __m128i documented_exception;
