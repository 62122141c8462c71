// The `serve` workload: client → units_router (2 shards) → units_serve
// workers (--threads 1, default batcher flags). One fp32 classification
// model and its int8 quantization live on different shards. Phase A is an
// open loop of seeded Poisson arrivals; phase B a closed loop of 4
// connections × 4 pipelined requests. Every OK reply is checked against an
// in-process Predict of the same payload on the same fp32 or int8 model.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "inputs.h"
#include "json/json.h"
#include "loops.h"
#include "netclient.h"
#include "router/hash_ring.h"
#include "serve_common.h"
#include "workloads.h"

namespace unitsbench {
namespace {

namespace core = units::core;
namespace json = units::json;
using units::Tensor;

constexpr int64_t kChannels = 3;
constexpr int64_t kWindow = 96;
constexpr int64_t kClasses = 4;
constexpr int64_t kPayloads = 64;
constexpr int kConns = 4;
constexpr int kPipelined = 4;
constexpr int64_t kMaxBatch = 16;  // units_serve's default --max-batch
/// Open-loop rate: about a third of the closed-loop capacity measured on a
/// 4-vCPU host (~1000 replies/s).
constexpr double kPhaseARate = 300.0;

/// One served model as the client sees it.
struct ServedModel {
  std::string name;
  std::string precision;  // "fp32" or "int8"
  Reference expected;     // in-process answers for every payload
};

/// A running router with its two workers.
struct Tier {
  Child router;
  int port = -1;
  Conn control;
};

std::string RequestLine(const std::string& model, int64_t id,
                        const std::string& values) {
  return "{\"op\":\"predict\",\"model\":\"" + model +
         "\",\"id\":" + std::to_string(id) + ",\"values\":" + values + "}\n";
}

/// Starts the tier, loads both models, quantizes one, and warms every
/// batch size 1..16 on both. Returns false with *error set on failure.
bool SetUp(const Context& ctx, const std::string& model_path,
           const std::vector<ServedModel*>& models,
           const std::vector<std::string>& payloads, Tier* tier,
           std::string* error) {
  ScopedSpan span(ctx.tracer, "router", "setup");
  std::vector<std::string> env;
  if (ctx.traced) {
    env.push_back("UNITS_PROFILE=1");
  }
  if (!tier->router.Start({ctx.bin_dir + "/units_router", "--port", "0",
                           "--shards", "2", "--worker-bin",
                           ctx.bin_dir + "/units_serve", "--worker-arg",
                           "--threads", "--worker-arg", "1"},
                          env, ctx.work_dir + "/router.log", error)) {
    return false;
  }
  tier->port = tier->router.WaitForPort(20.0);
  if (tier->port <= 0 || !tier->control.Connect(tier->port, error)) {
    *error = "router did not come up: " + *error;
    return false;
  }
  if (!WaitHealthyShards(&tier->control, 2, 20.0, error)) {
    return false;
  }
  for (ServedModel* m : models) {
    if (!CallOk(&tier->control,
                "{\"op\":\"load\",\"model\":\"" + m->name +
                    "\",\"path\":\"" + model_path + "\"}",
                error)) {
      return false;
    }
    if (m->precision == "int8" &&
        !CallOk(&tier->control,
                "{\"op\":\"quantize\",\"model\":\"" + m->name + "\"}",
                error)) {
      return false;
    }
  }
  // Warm batch sizes 1..16 on both models: a burst of b pipelined
  // requests forms one batch of b. Bursts that split are repeated.
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t i = 0; i < models.size(); ++i) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(tier->port, error)) {
      return false;
    }
  }
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<int64_t>> missing(models.size());
    auto stats = CallJson(&tier->control, "{\"op\":\"stats\"}", error);
    if (!stats.has_value()) {
      return false;
    }
    bool done = true;
    for (size_t i = 0; i < models.size(); ++i) {
      const auto hist = BatchHistogram(*stats, models[i]->name);
      for (int64_t b = 1; b <= kMaxBatch; ++b) {
        if (!hist.count(b)) {
          missing[i].push_back(b);
          done = false;
        }
      }
    }
    if (done) {
      return true;
    }
    for (int64_t b = 1; b <= kMaxBatch; ++b) {
      std::vector<Conn*> burst_conns;
      std::vector<std::vector<std::string>> lines;
      for (size_t i = 0; i < models.size(); ++i) {
        if (std::find(missing[i].begin(), missing[i].end(), b) ==
            missing[i].end()) {
          continue;
        }
        burst_conns.push_back(conns[i].get());
        lines.emplace_back();
        for (int64_t k = 0; k < b; ++k) {
          lines.back().push_back(RequestLine(
              models[i]->name, -1, payloads[static_cast<size_t>(k)]));
        }
      }
      if (!burst_conns.empty() && !Burst(burst_conns, lines, 30.0, error)) {
        return false;
      }
    }
  }
  *error = "batch sizes 1..16 could not be warmed";
  return false;
}

/// Checks replies against the references, fills `phase`, and returns
/// each reply's outcome.
std::vector<Outcome> CheckReplies(const std::vector<Received>& replies,
                                  const std::vector<ServedModel*>& models,
                                  Tracer* tr, PhaseStats* phase) {
  std::vector<Outcome> outcomes;
  for (const Received& rc : replies) {
    auto parsed = [&] {
      ScopedSpan s(tr, "json", "json::Parse[reply]", rc.sent.index);
      return json::Parse(rc.line);
    }();
    if (!parsed.ok() || !parsed->is_object() || !parsed->Contains("ok")) {
      phase->Record(Outcome::kError, rc.latency_ms);
      outcomes.push_back(Outcome::kError);
      continue;
    }
    const bool ok = parsed->at("ok").AsBool();
    const std::string err =
        !ok && parsed->Contains("error") && parsed->at("error").is_string()
            ? parsed->at("error").AsString()
            : "";
    Outcome outcome = ClassifyReply(ok, err);
    if (outcome == Outcome::kOk) {
      const bool id_ok = parsed->Contains("id") &&
                         parsed->at("id").AsInt() == rc.sent.index;
      if (!id_ok || !models[rc.sent.model]->expected.Matches(
                        *parsed, rc.sent.payload)) {
        outcome = Outcome::kWrong;
      }
    }
    phase->Record(outcome, rc.latency_ms);
    outcomes.push_back(outcome);
  }
  return outcomes;
}

}  // namespace

RunResult RunServe(const Context& ctx) {
  RunResult r;
  Tracer* tr = ctx.tracer;
  units::base::SetNumThreads(1);

  // Preparation (untimed): one fitted classification model file, the
  // payload pool, and in-process references.
  const std::string model_path = ctx.work_dir + "/classifier.json";
  std::string error;
  if (!PrepareModel(ctx, ModelKind::kClassifier, model_path, &error)) {
    r.Fail("prepare model: " + error);
    return r;
  }
  const LabeledWindows pool = MakeClassWindows(
      SubSeed(ctx.seed, "payloads"), kPayloads, kChannels, kWindow, kClasses);
  std::vector<std::string> payloads;
  for (int64_t i = 0; i < kPayloads; ++i) {
    payloads.push_back(NestedJsonArray(
        pool.x.data() + i * kChannels * kWindow, kChannels, kWindow, kWindow));
  }
  ServedModel fp32{"clf-fp32", "fp32", {}};
  ServedModel int8{"", "int8", {}};
  {
    // Place the two models on different shards of the router's ring.
    units::router::HashRing ring(64);
    ring.AddNode(0);
    ring.AddNode(1);
    for (int k = 0;; ++k) {
      int8.name = "clf-int8-" + std::to_string(k);
      if (ring.Lookup(int8.name) != ring.Lookup(fp32.name)) {
        break;
      }
    }
  }
  std::vector<double> load_ms;
  for (ServedModel* m : {&fp32, &int8}) {
    const auto t0 = Clock::now();
    auto reference =
        LoadForServing(model_path, m->precision == "int8", &error);
    load_ms.push_back(1000.0 * Seconds(t0, Clock::now()));
    if (reference == nullptr) {
      r.Fail("reference load: " + error);
      return r;
    }
    auto res = reference->Predict(pool.x);
    if (!res.ok()) {
      r.Fail("reference Predict: " + res.status().ToString());
      return r;
    }
    m->expected = Reference(*res);
  }
  const std::vector<ServedModel*> models = {&fp32, &int8};

  // Set-up, repeated; the last tier stays up for the phases.
  const int reps = ctx.reduced ? 1 : 3;
  std::vector<double> setup_s;
  auto tier = std::make_unique<Tier>();
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      tier->control.Close();
      tier->router.Stop();
      tier = std::make_unique<Tier>();
    }
    const auto t0 = Clock::now();
    if (!SetUp(ctx, model_path, models, payloads, tier.get(), &error)) {
      r.Fail("set-up: " + error);
      return r;
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
  }

  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> conns;
  for (int i = 0; i < kConns; ++i) {
    owned.push_back(std::make_unique<Conn>());
    if (!owned.back()->Connect(tier->port, &error)) {
      r.Fail("connect: " + error);
      return r;
    }
    conns.push_back(owned.back().get());
  }

  // Phase A: open-loop Poisson arrivals.
  const double dur_a = ctx.reduced ? 2.0 : std::max(4.0, 0.5 * ctx.seconds);
  const std::vector<double> offsets =
      PoissonSchedule(SubSeed(ctx.seed, "arrivals"), kPhaseARate, dur_a);
  std::vector<Sent> plan;
  std::vector<std::string> lines;
  std::vector<int> conn_of;
  SeededRng pick(SubSeed(ctx.seed, "phase-a"));
  for (size_t i = 0; i < offsets.size(); ++i) {
    const size_t m = static_cast<size_t>(pick.Below(2));
    const int64_t p = pick.Below(kPayloads);
    plan.push_back(Sent{static_cast<int64_t>(i), m, p, {}});
    lines.push_back(RequestLine(models[m]->name, static_cast<int64_t>(i),
                                payloads[static_cast<size_t>(p)]));
    conn_of.push_back(static_cast<int>(i % kConns));
  }
  PhaseStats phase_a("A_open_loop");
  std::vector<Received> replies_a;
  std::vector<double> late_ms;
  {
    ScopedSpan s(tr, "bench", "phase_a");
    OpenLoop(conns, Clock::now(), offsets, plan, lines, conn_of, tr, "router",
             &replies_a,
             &late_ms, &phase_a);
  }
  auto stats_a = CallJson(&tier->control, "{\"op\":\"stats\"}", &error);
  std::vector<units::json::JsonValue> workers_a;
  if (ctx.traced && stats_a.has_value()) {
    workers_a = DirectWorkerStats(*stats_a, &error);
  }

  // Phase B: closed loop, 4 connections × 4 pipelined.
  const double dur_b = ctx.reduced ? 1.0 : std::max(2.0, 0.3 * ctx.seconds);
  PhaseStats phase_b("B_closed_loop");
  std::vector<Received> replies_b;
  SeededRng pick_b(SubSeed(ctx.seed, "phase-b"));
  const int64_t base_b = static_cast<int64_t>(offsets.size());
  const auto b0 = Clock::now();
  Clock::time_point b_end;
  {
    ScopedSpan s(tr, "bench", "phase_b");
    b_end = ClosedLoop(
        conns, kPipelined, dur_b,
        [&](int64_t k) {
          return Sent{base_b + k, static_cast<size_t>(pick_b.Below(2)),
                      pick_b.Below(kPayloads), {}};
        },
        [&](const Sent& s) {
          return RequestLine(models[s.model]->name, s.index,
                             payloads[static_cast<size_t>(s.payload)]);
        },
        tr, "router", &replies_b, &phase_b);
  }
  auto stats_b = CallJson(&tier->control, "{\"op\":\"stats\"}", &error);
  std::vector<units::json::JsonValue> workers_b;
  if (ctx.traced && stats_b.has_value()) {
    workers_b = DirectWorkerStats(*stats_b, &error);
  }

  // Checks (outside the timed phases).
  CheckReplies(replies_a, models, tr, &phase_a);
  const std::vector<Outcome> outcomes_b =
      CheckReplies(replies_b, models, tr, &phase_b);
  // Goodput counts OK replies that arrived before the phase ended.
  int64_t ok_in_window = 0;
  for (size_t i = 0; i < replies_b.size(); ++i) {
    ok_in_window +=
        outcomes_b[i] == Outcome::kOk && replies_b[i].at <= b_end ? 1 : 0;
  }
  r.Account(phase_a);
  r.Account(phase_b);
  if (phase_a.wrong() + phase_b.wrong() > 0) {
    r.Fail("replies differ from the in-process reference");
  }
  if (!ctx.reduced && phase_a.ok() < 1000) {
    r.Fail("phase A has fewer than 1000 OK samples");
  }

  // Memory: VmHWM of the router and its workers.
  double rss = PeakRssMiB(tier->router.pid());
  std::vector<int> worker_ports;
  if (stats_b.has_value() && stats_b->Contains("shards")) {
    const json::JsonValue& shards = stats_b->at("shards");
    for (size_t i = 0; i < shards.size(); ++i) {
      rss += PeakRssMiB(static_cast<int>(shards[i].at("pid").AsInt()));
      worker_ports.push_back(static_cast<int>(shards[i].at("port").AsInt()));
    }
  }

  r.Set("setup_s", Median(setup_s), "s");
  r.Set("goodput_rps",
        static_cast<double>(ok_in_window) / Seconds(b0, b_end), "1/s");
  r.Set("p50_ms", Quantile(phase_a.ok_latencies(), 0.5), "ms");
  r.Set("client.p99_ms", Quantile(phase_a.ok_latencies(), 0.99), "ms");
  r.Set("peak_rss_mb", rss, "MiB");
  r.Note("serve: phase A " + std::to_string(offsets.size()) +
         " arrivals at " + FormatNumber(kPhaseARate) + "/s over " +
         FormatNumber(dur_a) + " s; lateness p99 " +
         FormatNumber(Quantile(late_ms, 0.99)) + " ms; phase B " +
         FormatNumber(dur_b) + " s");

  if (ctx.traced && stats_b.has_value() && workers_a.size() == 2 &&
      workers_b.size() == 2) {
    const WorkerStats wa = SumWorkerStats(workers_a);
    const WorkerStats wb = SumWorkerStats(workers_b);
    const double client_p50 = Quantile(phase_a.ok_latencies(), 0.5);
    r.Set("serve.server_p50_ms", wa.p50_ms, "ms");
    r.Set("serve.frontend_ms", client_p50 - wa.p50_ms, "ms");
    r.Set("serve.batch_ms", wb.batch_ms, "ms");
    const int64_t db = wb.batches - wa.batches;
    r.Set("serve.mean_batch_size",
          db > 0 ? static_cast<double>(wb.requests - wa.requests) /
                       static_cast<double>(db)
                 : 0.0,
          "rows");
    r.Note("serve: phase A batch histogram " + wa.histogram +
           "; after phase B " + wb.histogram);
    r.Set("serve.shed", static_cast<double>(wb.shed), "count");
    r.Set("serve.timed_out", static_cast<double>(wb.timed_out), "count");
    r.Set("plan.planned_share", wb.PlannedShare(), "share");
    r.Set("plan.plans", static_cast<double>(wb.plans), "count");
    r.Set("plan.arena_bytes_max", static_cast<double>(wb.arena_bytes_max),
          "bytes");
    const json::JsonValue& router = stats_b->at("router");
    r.Set("router.retries", static_cast<double>(router.at("retries").AsInt()),
          "count");
    r.Set("router.unavailable",
          static_cast<double>(router.at("unavailable").AsInt()), "count");
    r.Set("client.late_p99_ms", Quantile(late_ms, 0.99), "ms");

    // Router hop: the phase A schedule again, straight to the owners.
    if (worker_ports.size() == 2) {
      units::router::HashRing ring(64);
      ring.AddNode(0);
      ring.AddNode(1);
      std::vector<std::unique_ptr<Conn>> direct_owned;
      std::vector<Conn*> direct;
      for (int i = 0; i < kConns; ++i) {
        // Connections 0,1 go to the fp32 owner, 2,3 to the int8 owner.
        const int owner = ring.Lookup(models[static_cast<size_t>(i / 2)]->name);
        direct_owned.push_back(std::make_unique<Conn>());
        if (!direct_owned.back()->Connect(
                worker_ports[static_cast<size_t>(owner)], &error)) {
          r.Fail("direct connect: " + error);
          return r;
        }
        direct.push_back(direct_owned.back().get());
      }
      std::vector<int> direct_conn_of;
      for (size_t i = 0; i < plan.size(); ++i) {
        direct_conn_of.push_back(static_cast<int>(plan[i].model * 2 + i % 2));
      }
      PhaseStats phase_direct("A_direct_to_workers");
      std::vector<Received> replies_d;
      std::vector<double> late_d;
      {
        ScopedSpan s(tr, "bench", "phase_a_direct");
        OpenLoop(direct, Clock::now(), offsets, plan, lines, direct_conn_of,
                 tr, "serve",
                 &replies_d, &late_d, &phase_direct);
      }
      CheckReplies(replies_d, models, tr, &phase_direct);
      r.Account(phase_direct);
      if (phase_direct.wrong() > 0) {
        r.Fail("direct replies differ from the in-process reference");
      }
      r.Set("router.hop_ms",
            client_p50 - Quantile(phase_direct.ok_latencies(), 0.5), "ms");
    }

    // In-process layer numbers on this workload's model and payloads.
    r.Set("core.load_model_ms", Median(load_ms), "ms");
    r.Set("tensor.conv_gemm_gflops_b1", ConvGemmGflopsAt(kWindow, 1, 0.3),
          "GFLOP/s");
    InProcessPlanMetrics(model_path, pool.x, &r);
    std::vector<std::string> reply_lines;
    for (const Received& rc : replies_a) {
      reply_lines.push_back(rc.line);
    }
    JsonMetrics(lines, reply_lines, &r);
  }
  return r;
}

}  // namespace unitsbench
