#ifndef UNITSBENCH_INPUTS_H_
#define UNITSBENCH_INPUTS_H_

// Seeded input generators owned by the benchmark: the program under test
// sees only what these produce, and the same seed always produces the same
// inputs (no library generator is involved, so library changes cannot move
// the inputs).

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace unitsbench {

/// SplitMix64 stream with a Box-Muller normal; fully specified, so the
/// same seed gives the same numbers on every platform.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();  // [0, 1)
  double Normal();
  int64_t Below(int64_t n);  // [0, n)

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for one named input.
uint64_t SubSeed(uint64_t seed, const std::string& what);

/// Labeled windows [n, channels, length] of `classes` classes. Each class
/// owns fixed per-channel waveforms and a localized motif; instances vary
/// in phase, amplitude and noise.
struct LabeledWindows {
  units::Tensor x;
  std::vector<int64_t> y;
};
LabeledWindows MakeClassWindows(uint64_t seed, int64_t n, int64_t channels,
                                int64_t length, int64_t classes);

/// Long unlabeled series [channels, segments·segment] made of consecutive
/// class segments (the pre-training pool).
units::Tensor MakeClassSeries(uint64_t seed, int64_t segments,
                              int64_t channels, int64_t segment,
                              int64_t classes);

/// Monitoring stream [channels, length]: per-channel level, slow drift,
/// seasonality and noise, plus rare spikes when `spikes` is set.
units::Tensor MakeMonitorSeries(uint64_t seed, int64_t channels,
                                int64_t length, bool spikes);

/// Writes a [D, T] series as long-format CSV (rows = time, columns =
/// channels, no header), the format LoadCsvSeries reads.
bool WriteLongCsv(const std::string& path, const units::Tensor& series);

/// Renders values [D][T] as a nested JSON array with %.9g floats, which
/// round-trip float32 exactly.
std::string NestedJsonArray(const float* data, int64_t channels,
                            int64_t length, int64_t row_stride);

}  // namespace unitsbench

#endif  // UNITSBENCH_INPUTS_H_
