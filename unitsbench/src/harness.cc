#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>

namespace unitsbench {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: ceil(q·n), clamped to [1, n].
  int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  return sum / static_cast<double>(samples.size());
}

std::vector<std::vector<double>> SplitBySegment(
    const std::vector<double>& at_s, const std::vector<double>& values,
    double duration_s, int segments) {
  std::vector<std::vector<double>> out(static_cast<size_t>(segments));
  for (size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    const double pos = at_s[i] / duration_s * segments;
    if (pos >= 0.0 && pos < segments) {
      out[static_cast<size_t>(pos)].push_back(values[i]);
    }
  }
  return out;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s) {
  std::vector<double> offsets;
  if (rate <= 0.0 || duration_s <= 0.0) {
    return offsets;
  }
  // mt19937_64 and the inversion below are fully specified by the C++
  // standard, so the schedule is identical across compilers and runs.
  std::mt19937_64 gen(seed ^ 0x5eed5c4edULL);
  double t = 0.0;
  for (;;) {
    const double u =
        (static_cast<double>(gen() >> 11) + 0.5) * (1.0 / 9007199254740992.0);
    t += -std::log(u) / rate;
    if (t >= duration_s) {
      break;
    }
    offsets.push_back(t);
  }
  return offsets;
}

Outcome ClassifyReply(bool ok, const std::string& error) {
  if (ok) {
    return Outcome::kOk;
  }
  if (error == "overloaded") {
    return Outcome::kShed;
  }
  if (error.find("timed out") != std::string::npos ||
      error.find("DEADLINE") != std::string::npos) {
    return Outcome::kTimedOut;
  }
  return Outcome::kError;
}

void PhaseStats::Record(Outcome outcome, double latency_ms) {
  switch (outcome) {
    case Outcome::kOk:
      ok_ms_.push_back(latency_ms);
      break;
    case Outcome::kShed:
      ++shed_;
      shed_ms_.push_back(latency_ms);
      break;
    case Outcome::kTimedOut:
      ++timed_out_;
      break;
    case Outcome::kError:
      ++errors_;
      break;
    case Outcome::kWrong:
      ++wrong_;
      break;
  }
}

int64_t PhaseStats::unanswered() const {
  return attempted_ - ok() - shed_ - timed_out_ - errors_ - wrong_;
}

std::string PhaseStats::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "phase %s: attempted=%lld ok=%lld shed=%lld error=%lld timed_out=%lld "
      "wrong=%lld unanswered=%lld samples=%zu ok_p50_ms=%.3f ok_p99_ms=%.3f "
      "shed_samples=%zu shed_p50_ms=%.3f",
      name_.c_str(), static_cast<long long>(attempted_),
      static_cast<long long>(ok()), static_cast<long long>(shed_),
      static_cast<long long>(errors_), static_cast<long long>(timed_out_),
      static_cast<long long>(wrong_), static_cast<long long>(unanswered()),
      ok_ms_.size(), Quantile(ok_ms_, 0.5), Quantile(ok_ms_, 0.99),
      shed_ms_.size(), Quantile(shed_ms_, 0.5));
  return buf;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::Us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int64_t Tracer::Begin(const char* layer, const std::string& name,
                      int64_t request) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = current();
  span.request = request;
  span.start_us = Us(Clock::now());
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_us = Us(Clock::now());
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

void Tracer::Add(const char* layer, const std::string& name,
                 Clock::time_point start, Clock::time_point end,
                 int64_t parent, int64_t request) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_us = Us(start);
  span.end_us = Us(end);
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
}

namespace {

/// Total length of the union of [start, end) intervals, clipped to
/// [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> iv, double lo,
                   double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) {
      continue;
    }
    if (a > cur_hi) {
      if (cur_hi > cur_lo) {
        total += cur_hi - cur_lo;
      }
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) {
    total += cur_hi - cur_lo;
  }
  return total;
}

}  // namespace

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double own = s.end_us - s.start_us;
    const double covered = UnionLength(children[i], s.start_us, s.end_us);
    self[s.layer] += std::max(0.0, own - covered) / 1000.0;
  }
  return self;
}

double Tracer::Coverage(int64_t root) const {
  if (root < 0 || static_cast<size_t>(root) >= spans_.size()) {
    return 0.0;
  }
  // Descendants: spans whose parent chain reaches `root` (parents always
  // precede their children in spans_).
  std::vector<bool> under(spans_.size(), false);
  under[static_cast<size_t>(root)] = true;
  std::vector<std::pair<double, double>> iv;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    const int64_t p = spans_[i].parent;
    if (p >= 0 && under[static_cast<size_t>(p)]) {
      under[i] = true;
      iv.emplace_back(spans_[i].start_us, spans_[i].end_us);
    }
  }
  const Span& r = spans_[static_cast<size_t>(root)];
  const double span = r.end_us - r.start_us;
  return span > 0.0 ? UnionLength(iv, r.start_us, r.end_us) / span : 0.0;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld, "
                  "\"request\": %lld}",
                  s.start_us, s.end_us, static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << "  {\"id\": " << i << ", \"layer\": \"" << s.layer
        << "\", \"name\": \"" << s.name << "\", " << buf
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void RunResult::Account(const PhaseStats& phase) {
  attempted += phase.attempted();
  failed += phase.failed();
  Note(phase.Summary());
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  Note("CHECK FAILED: " + why);
}

double PeakRssMiB(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace unitsbench
