// Built with -mavx2 -mfma; only called after AvxFmaGflops checked the CPU.

#include <immintrin.h>

#include <cstdint>

#include "harness.h"
#include "host_probe.h"

namespace unitsbench {
namespace {

/// Eight independent 8-wide FMA accumulators: 128 flops per step, enough
/// parallel chains to cover FMA latency on current cores.
double AvxLoop(double seconds) {
  __m256 acc[8];
  for (int k = 0; k < 8; ++k) {
    acc[k] = _mm256_set1_ps(static_cast<float>(k) * 1e-3f);
  }
  const __m256 a = _mm256_set1_ps(0.999999f);
  const __m256 b = _mm256_set1_ps(1e-7f);
  int64_t steps = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    for (int i = 0; i < (1 << 14); ++i) {
      for (int k = 0; k < 8; ++k) {
        acc[k] = _mm256_fmadd_ps(acc[k], a, b);
      }
    }
    steps += 1 << 14;
    elapsed = Seconds(start, Clock::now());
  }
  __m256 sum = acc[0];
  for (int k = 1; k < 8; ++k) {
    sum = _mm256_add_ps(sum, acc[k]);
  }
  alignas(32) float out[8];
  _mm256_store_ps(out, sum);
  volatile float sink = out[0];
  (void)sink;
  return static_cast<double>(steps) * 128.0 / elapsed / 1e9;
}

}  // namespace

double AvxFmaLoopGflops(double seconds) { return AvxLoop(seconds); }

}  // namespace unitsbench
