#ifndef UNITSBENCH_HOST_PROBE_H_
#define UNITSBENCH_HOST_PROBE_H_

// Reference loops owned by the benchmark (no library code), timed before
// and after each workload so a slow machine can be told from slow code.

namespace unitsbench {

struct HostSpeed {
  double avx_gflops = 0.0;   // single-thread AVX2 FMA throughput
  double scalar_mops = 0.0;  // single-thread dependent integer ops
};

/// Times both loops for about `seconds` each.
HostSpeed ProbeHost(double seconds);

/// AVX2 FMA loop (scalar FMA fallback without AVX2); GFLOP/s.
double AvxFmaGflops(double seconds);

/// The AVX2 loop itself; requires AVX2 and FMA.
double AvxFmaLoopGflops(double seconds);

}  // namespace unitsbench

#endif  // UNITSBENCH_HOST_PROBE_H_
