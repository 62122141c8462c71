#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace unitsbench {

using units::Tensor;

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeededRng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double SeededRng::Normal() {
  const double u1 = Uniform() + 1e-300;
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

int64_t SeededRng::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

uint64_t SubSeed(uint64_t seed, const std::string& what) {
  // FNV-1a over the name, mixed with the run seed.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : what) {
    h = (h ^ c) * 1099511628211ULL;
  }
  SeededRng mix(seed ^ h);
  return mix.Next();
}

namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Writes one class instance into out[d * stride + t].
void ClassInstance(SeededRng* rng, int64_t cls, int64_t channels,
                   int64_t length, float* out, int64_t stride) {
  const double amp = 1.0 + 0.2 * (rng->Uniform() - 0.5);
  const double phase = rng->Uniform() * kTwoPi;
  const double motif_at =
      (0.15 + 0.2 * static_cast<double>(cls)) * static_cast<double>(length) +
      (rng->Uniform() - 0.5) * 6.0;
  for (int64_t d = 0; d < channels; ++d) {
    const double cycles = 2.0 + 1.2 * static_cast<double>(cls) +
                          0.5 * static_cast<double>(d);
    for (int64_t t = 0; t < length; ++t) {
      const double tt = static_cast<double>(t);
      double v = amp * std::sin(kTwoPi * cycles * tt /
                                    static_cast<double>(length) +
                                phase + static_cast<double>(d));
      if (d == cls % channels) {
        const double z = (tt - motif_at) / 3.0;
        v += 1.5 * std::exp(-0.5 * z * z);
      }
      v += 0.3 * rng->Normal();
      out[d * stride + t] = static_cast<float>(v);
    }
  }
}

}  // namespace

LabeledWindows MakeClassWindows(uint64_t seed, int64_t n, int64_t channels,
                                int64_t length, int64_t classes) {
  SeededRng rng(seed);
  LabeledWindows out;
  out.x = Tensor::Zeros({n, channels, length});
  out.y.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t cls = rng.Below(classes);
    out.y[static_cast<size_t>(i)] = cls;
    ClassInstance(&rng, cls, channels, length,
                  out.x.data() + i * channels * length, length);
  }
  return out;
}

Tensor MakeClassSeries(uint64_t seed, int64_t segments, int64_t channels,
                       int64_t segment, int64_t classes) {
  SeededRng rng(seed);
  const int64_t total = segments * segment;
  Tensor series = Tensor::Zeros({channels, total});
  for (int64_t s = 0; s < segments; ++s) {
    ClassInstance(&rng, rng.Below(classes), channels, segment,
                  series.data() + s * segment, total);
  }
  return series;
}

Tensor MakeMonitorSeries(uint64_t seed, int64_t channels, int64_t length,
                         bool spikes) {
  SeededRng rng(seed);
  Tensor series = Tensor::Zeros({channels, length});
  for (int64_t d = 0; d < channels; ++d) {
    const double level = 10.0 * static_cast<double>(d + 1);
    const double period = 64.0 + 16.0 * static_cast<double>(d);
    const double phase = rng.Uniform() * kTwoPi;
    for (int64_t t = 0; t < length; ++t) {
      const double tt = static_cast<double>(t);
      double v = level + 0.002 * tt + 3.0 * std::sin(kTwoPi * tt / period +
                                                     phase) +
                 0.5 * rng.Normal();
      if (spikes && rng.Uniform() < 0.002) {
        v += 8.0;
      }
      series.data()[d * length + t] = static_cast<float>(v);
    }
  }
  return series;
}

bool WriteLongCsv(const std::string& path, const Tensor& series) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t channels = series.dim(0);
  const int64_t length = series.dim(1);
  for (int64_t t = 0; t < length; ++t) {
    for (int64_t d = 0; d < channels; ++d) {
      std::fprintf(f, d == 0 ? "%.6g" : ",%.6g",
                   static_cast<double>(series.data()[d * length + t]));
    }
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

std::string NestedJsonArray(const float* data, int64_t channels,
                            int64_t length, int64_t row_stride) {
  std::string out = "[";
  char buf[32];
  for (int64_t d = 0; d < channels; ++d) {
    out += d == 0 ? "[" : ",[";
    for (int64_t t = 0; t < length; ++t) {
      std::snprintf(buf, sizeof(buf), t == 0 ? "%.9g" : ",%.9g",
                    static_cast<double>(data[d * row_stride + t]));
      out += buf;
    }
    out += "]";
  }
  out += "]";
  return out;
}

}  // namespace unitsbench
