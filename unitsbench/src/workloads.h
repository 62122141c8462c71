#ifndef UNITSBENCH_WORKLOADS_H_
#define UNITSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace unitsbench {

/// Everything a workload run needs. `traced` runs record spans and
/// measure the per-layer metrics; `reduced` shrinks the workload for the
/// per-layer pass a traced run of another workload makes over it.
struct Context {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool reduced = false;
  std::string bin_dir;   // holds units_serve and units_router
  std::string work_dir;  // per-run scratch (inputs, models, logs)
  Tracer* tracer = nullptr;
};

RunResult RunFit(const Context& ctx);
RunResult RunServe(const Context& ctx);
RunResult RunStream(const Context& ctx);

/// GFLOP/s of ops::MatMul on the TCN conv shape [24 x 72] · [72 x cols]
/// at `threads` intra-op threads.
double ConvGemmGflopsAt(int64_t cols, int threads, double seconds);

/// Times `fn` `reps` times and returns the median in milliseconds.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(1000.0 * Seconds(t0, Clock::now()));
  }
  return Median(ms);
}

}  // namespace unitsbench

#endif  // UNITSBENCH_WORKLOADS_H_
