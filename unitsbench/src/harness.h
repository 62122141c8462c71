#ifndef UNITSBENCH_HARNESS_H_
#define UNITSBENCH_HARNESS_H_

// Measurement plumbing shared by the three workloads: clocks, nearest-rank
// quantiles, the seeded open-loop schedule, per-phase failure accounting,
// in-memory spans, and the metric map the final JSON line is built from.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unitsbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
double Seconds(Clock::time_point a, Clock::time_point b);

/// Nearest-rank quantile: the smallest sample with at least q·n samples at
/// or below it (q in (0, 1]). 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// Median as the nearest-rank 0.5 quantile.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// Splits values by their time offsets `at_s` into `segments` equal
/// windows of [0, duration_s); values outside are dropped.
std::vector<std::vector<double>> SplitBySegment(const std::vector<double>& at_s,
                                                const std::vector<double>& values,
                                                double duration_s,
                                                int segments);

/// Send offsets (seconds from phase start) of a Poisson arrival process at
/// `rate` per second over `duration_s`: exponential gaps drawn from a
/// private generator seeded with `seed`, so the same seed always yields
/// the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double duration_s);

/// How one reply (or one in-process call) ended.
enum class Outcome { kOk, kShed, kTimedOut, kError, kWrong };

/// Maps a protocol reply to an outcome from its "ok" and "error" fields:
/// "overloaded" is a shed, a queue deadline is a time-out, anything else
/// not ok is an error. Correctness (kWrong) is decided by the caller.
Outcome ClassifyReply(bool ok, const std::string& error);

/// Per-phase accounting: every attempt ends in exactly one outcome, and
/// only OK outcomes carry latency into the OK sample (shed replies keep
/// their own latency sample).
class PhaseStats {
 public:
  explicit PhaseStats(std::string name = "") : name_(std::move(name)) {}

  void Attempt() { ++attempted_; }
  /// Records the outcome of one earlier Attempt(). Workloads keep raw
  /// replies during the timed phase and classify and check them after it.
  void Record(Outcome outcome, double latency_ms);

  int64_t attempted() const { return attempted_; }
  int64_t ok() const { return static_cast<int64_t>(ok_ms_.size()); }
  int64_t shed() const { return shed_; }
  int64_t timed_out() const { return timed_out_; }
  int64_t errors() const { return errors_; }
  int64_t wrong() const { return wrong_; }
  /// Attempts without a reply when the phase ended.
  int64_t unanswered() const;
  /// Every attempt that did not end OK.
  int64_t failed() const { return attempted_ - ok(); }
  const std::vector<double>& ok_latencies() const { return ok_ms_; }
  const std::vector<double>& shed_latencies() const { return shed_ms_; }

  /// One human-readable line: counts, sample size, OK and shed quantiles.
  std::string Summary() const;

 private:
  std::string name_;
  int64_t attempted_ = 0;
  int64_t shed_ = 0;
  int64_t timed_out_ = 0;
  int64_t errors_ = 0;
  int64_t wrong_ = 0;
  std::vector<double> ok_ms_;
  std::vector<double> shed_ms_;
};

/// In-memory span recorder. Spans nest through an explicit stack on the
/// recording thread; asynchronous spans (requests in flight on a socket)
/// name their parent explicitly. Disabled recorders cost one branch.
class Tracer {
 public:
  struct Span {
    std::string layer;  // src/ module the call goes into
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open span; returns its id (-1 when
  /// disabled).
  int64_t Begin(const char* layer, const std::string& name,
                int64_t request = -1);
  void End(int64_t id);
  /// Records a finished span with explicit times and parent.
  void Add(const char* layer, const std::string& name, Clock::time_point start,
           Clock::time_point end, int64_t parent, int64_t request);
  int64_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Per layer: summed span time minus the time covered by its children.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Share of span `root`'s duration covered by the union of its
  /// descendants.
  double Coverage(int64_t root) const;
  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  double Us(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span on a Tracer (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const std::string& name,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(layer, name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Folds a phase's attempts and failures into the run totals.
  void Account(const PhaseStats& phase);
  /// Marks the run incorrect with a reason.
  void Fail(const std::string& why);
};

/// Peak resident set (VmHWM) of a process in MiB, 0 when unreadable.
double PeakRssMiB(int pid);

/// Formats with enough digits to keep the measured value intact.
std::string FormatNumber(double v);

}  // namespace unitsbench

#endif  // UNITSBENCH_HARNESS_H_
