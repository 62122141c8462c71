#include "host_probe.h"

#include <cmath>
#include <cstdint>

#include "harness.h"

namespace unitsbench {
namespace {

/// One dependent chain of multiply, add, xor and shift: 4 integer ops per
/// step, latency-bound so vector units and memory play no part.
double ScalarMops(double seconds) {
  volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  int64_t ops = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    for (int i = 0; i < (1 << 16); ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    ops += 4 << 16;
    elapsed = Seconds(start, Clock::now());
  }
  sink = x;
  (void)sink;
  return static_cast<double>(ops) / elapsed / 1e6;
}

double ScalarFmaGflops(double seconds) {
  float acc[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  int64_t steps = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    for (int i = 0; i < (1 << 14); ++i) {
      for (float& v : acc) {
        v = std::fma(v, 0.999999f, 1e-7f);
      }
    }
    steps += 1 << 14;
    elapsed = Seconds(start, Clock::now());
  }
  volatile float sink = acc[0];
  (void)sink;
  return static_cast<double>(steps) * 16.0 / elapsed / 1e9;
}

}  // namespace

double AvxFmaGflops(double seconds) {
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return AvxFmaLoopGflops(seconds);
  }
  return ScalarFmaGflops(seconds);
}

HostSpeed ProbeHost(double seconds) {
  HostSpeed speed;
  speed.avx_gflops = AvxFmaGflops(seconds);
  speed.scalar_mops = ScalarMops(seconds);
  return speed;
}

}  // namespace unitsbench
