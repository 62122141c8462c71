// unitsbench — end-to-end benchmark binary for the UniTS library and its
// serving tier. One workload per invocation:
//
//   unitsbench --workload fit|serve|stream --seed N --seconds S --trace 0|1
//              --bin-dir DIR --work-dir DIR
//
// Notes go to stdout first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 measures the
// end-to-end metrics with tracing off. --trace 1 runs the workload once
// untraced and once traced (the difference is the tracing overhead), then
// fills the per-layer metrics the workload does not drive from short
// traced passes over the other two workloads. Exits 1 when a check fails.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include "base/logging.h"
#include "harness.h"
#include "host_probe.h"
#include "workloads.h"

namespace unitsbench {
namespace {

using WorkloadFn = std::function<RunResult(const Context&)>;

WorkloadFn Lookup(const std::string& name) {
  if (name == "fit") {
    return RunFit;
  }
  if (name == "serve") {
    return RunServe;
  }
  if (name == "stream") {
    return RunStream;
  }
  return nullptr;
}

void PrintResult(const RunResult& r) {
  for (const std::string& line : r.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Runs `fn` between two host probes and records their medians.
RunResult ProbedRun(const WorkloadFn& fn, const Context& ctx) {
  const HostSpeed before = ProbeHost(0.15);
  RunResult r = fn(ctx);
  const HostSpeed after = ProbeHost(0.15);
  r.Note("host: avx_gflops before=" + FormatNumber(before.avx_gflops) +
         " after=" + FormatNumber(after.avx_gflops) +
         " scalar_mops before=" + FormatNumber(before.scalar_mops) +
         " after=" + FormatNumber(after.scalar_mops));
  r.Set("host.avx_gflops", 0.5 * (before.avx_gflops + after.avx_gflops),
        "GFLOP/s");
  r.Set("host.scalar_mops", 0.5 * (before.scalar_mops + after.scalar_mops),
        "Mop/s");
  return r;
}

RunResult Traced(const std::string& workload, const Context& base) {
  const WorkloadFn fn = Lookup(workload);
  // Untraced reference for the tracing overhead.
  const RunResult untraced = fn(base);

  Tracer tracer(true);
  Context ctx = base;
  ctx.traced = true;
  ctx.tracer = &tracer;
  const int64_t root = tracer.Begin("bench", workload);
  RunResult r = ProbedRun(fn, ctx);
  tracer.End(root);

  r.correct = r.correct && untraced.correct;
  r.attempted += untraced.attempted;
  r.failed += untraced.failed;
  for (const std::string& line : untraced.notes) {
    if (line.rfind("CHECK FAILED", 0) == 0) {
      r.Note("untraced " + line);
    }
  }
  // End-to-end metrics are the ones without a layer prefix.
  for (const auto& [name, a] : untraced.metrics) {
    const auto b = r.metrics.find(name);
    if (name.find('.') == std::string::npos && b != r.metrics.end()) {
      r.Note("tracing overhead " + name + ": untraced=" +
             FormatNumber(a.value) + " traced=" +
             FormatNumber(b->second.value) +
             " diff=" + FormatNumber(b->second.value - a.value));
    }
  }
  const auto g0 = untraced.metrics.find("goodput_rps");
  const auto g1 = r.metrics.find("goodput_rps");
  if (g0 != untraced.metrics.end() && g1 != r.metrics.end() &&
      g0->second.value > 0.0) {
    r.Set("trace.overhead_share",
          (g0->second.value - g1->second.value) / g0->second.value, "share");
  }
  r.Set("trace.coverage_share", tracer.Coverage(root), "share");
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    r.Note("self time " + workload + "/" + layer + ": " + FormatNumber(ms) +
           " ms");
  }
  const std::string spans = base.work_dir + "/spans-" + workload + ".json";
  r.Note("spans: " + std::to_string(tracer.size()) + " written to " + spans);
  tracer.WriteJson(spans);

  // Per-layer metrics of layers this workload does not drive come from
  // short traced passes over the other workloads.
  for (const char* other : {"fit", "serve", "stream"}) {
    if (workload == other) {
      continue;
    }
    Tracer other_tracer(true);
    Context octx = base;
    octx.traced = true;
    octx.reduced = true;
    octx.tracer = &other_tracer;
    octx.work_dir = base.work_dir + "/" + other;
    std::filesystem::create_directories(octx.work_dir);
    const RunResult o = Lookup(other)(octx);
    r.correct = r.correct && o.correct;
    r.attempted += o.attempted;
    r.failed += o.failed;
    for (const std::string& line : o.notes) {
      if (line.rfind("CHECK FAILED", 0) == 0) {
        r.Note(std::string(other) + " " + line);
      }
    }
    for (const auto& [name, m] : o.metrics) {
      if (name.find('.') != std::string::npos && !r.metrics.count(name)) {
        r.metrics[name] = m;
      }
    }
  }
  return r;
}

int Main(int argc, char** argv) {
  units::SetLogLevel(units::LogLevel::kWarning);
  std::signal(SIGPIPE, SIG_IGN);
  std::string workload;
  Context ctx;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--bin-dir") {
      ctx.bin_dir = value;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadFn fn = Lookup(workload);
  if (fn == nullptr || ctx.bin_dir.empty() || ctx.work_dir.empty() ||
      ctx.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: unitsbench --workload fit|serve|stream --seed N "
                 "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR\n");
    return 2;
  }
  Tracer off(false);
  ctx.tracer = &off;
  const RunResult r = trace ? Traced(workload, ctx) : ProbedRun(fn, ctx);
  PrintResult(r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace unitsbench

int main(int argc, char** argv) { return unitsbench::Main(argc, argv); }
