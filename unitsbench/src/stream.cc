// The `stream` workload: client → one units_serve (--threads 1) holding an
// anomaly-detection model. Four streaming sessions, one per connection
// (window 96, stride 8, rolling normalization and threshold recalibration
// on), replayed in closed loop: each session sends its next 8-point chunk
// when the previous feed is answered, so every feed completes one window.
// Every window's verdict is checked against an offline replay through
// StreamState and an in-process Predict (DESIGN.md §13).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "core/serialize.h"
#include "inputs.h"
#include "json/json.h"
#include "netclient.h"
#include "serve/streaming.h"
#include "serve_common.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace unitsbench {
namespace {

namespace core = units::core;
namespace json = units::json;
using units::Tensor;
using units::serve::StreamState;

constexpr int64_t kChannels = 2;
constexpr int64_t kWindow = 96;
constexpr int64_t kStride = 8;
constexpr double kQuantile = 0.99;
constexpr int kSessions = 4;
constexpr int64_t kSegmentFeeds = 1100;
constexpr int64_t kMaxFeeds = 6000;  // per session; far above what runs use
const char* const kModel = "anomaly";

/// One session: its series, pre-rendered chunks, and what came back.
struct Session {
  Tensor series;                    // [2, 96 + 8·kMaxFeeds]
  std::vector<std::string> chunks;  // chunk k covers points of feed k
  int64_t sid = -1;
  int64_t feeds_sent = 0;
  std::vector<std::string> replies;  // one per feed, in order
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> at;
};

/// Points of feed k: the first feed fills a whole window, later feeds
/// carry one stride each.
std::pair<int64_t, int64_t> FeedSpan(int64_t k) {
  if (k == 0) {
    return {0, kWindow};
  }
  return {kWindow + (k - 1) * kStride, kStride};
}

std::string FeedLine(const Session& s, int64_t k) {
  return "{\"op\":\"stream_feed\",\"stream\":" + std::to_string(s.sid) +
         ",\"id\":" + std::to_string(k) +
         ",\"values\":" + s.chunks[static_cast<size_t>(k)] + "}\n";
}

struct Worker {
  Child proc;
  int port = -1;
  Conn control;
  std::vector<std::unique_ptr<Conn>> conns;
};

/// Worker start → 4 streams open → batch sizes 1..4 warmed → first window
/// on every stream.
bool SetUp(const Context& ctx, const std::string& model_path,
           const std::string& warm_payload, std::vector<Session>* sessions,
           Worker* w, std::string* error) {
  ScopedSpan span(ctx.tracer, "serve", "setup");
  std::vector<std::string> env;
  if (ctx.traced) {
    env.push_back("UNITS_PROFILE=1");
  }
  if (!w->proc.Start({ctx.bin_dir + "/units_serve", "--port", "0",
                      "--threads", "1", "--model",
                      std::string(kModel) + "=" + model_path},
                     env, ctx.work_dir + "/worker.log", error)) {
    return false;
  }
  w->port = w->proc.WaitForPort(30.0);
  if (w->port <= 0 || !w->control.Connect(w->port, error)) {
    *error = "worker did not come up: " + *error;
    return false;
  }
  for (Session& s : *sessions) {
    w->conns.push_back(std::make_unique<Conn>());
    if (!w->conns.back()->Connect(w->port, error)) {
      return false;
    }
    auto opened = CallJson(
        w->conns.back().get(),
        "{\"op\":\"stream_open\",\"model\":\"" + std::string(kModel) +
            "\",\"window\":" + std::to_string(kWindow) +
            ",\"stride\":" + std::to_string(kStride) +
            ",\"normalize\":true,\"quantile\":" + FormatNumber(kQuantile) +
            "}",
        error);
    if (!opened.has_value() || !opened->Contains("stream")) {
      *error = "stream_open failed: " + *error;
      return false;
    }
    s.sid = opened->at("stream").AsInt();
    s.feeds_sent = 0;
    s.replies.clear();
    s.latency_ms.clear();
    s.at.clear();
  }
  const std::string predict = "{\"op\":\"predict\",\"model\":\"" +
                              std::string(kModel) +
                              "\",\"values\":" + warm_payload + "}\n";
  for (int round = 0; round < 4; ++round) {
    auto stats = CallJson(&w->control, "{\"op\":\"stats\"}", error);
    if (!stats.has_value()) {
      return false;
    }
    const auto hist = BatchHistogram(*stats, kModel);
    bool done = true;
    for (int64_t b = 1; b <= kSessions; ++b) {
      if (hist.count(b)) {
        continue;
      }
      done = false;
      if (!Burst({&w->control}, {std::vector<std::string>(b, predict)}, 30.0,
                 error)) {
        return false;
      }
    }
    if (done) {
      break;
    }
    if (round == 3) {
      *error = "batch sizes 1..4 could not be warmed";
      return false;
    }
  }
  // First window on every stream, all four feeds at once.
  std::vector<Conn*> conns;
  for (size_t i = 0; i < sessions->size(); ++i) {
    Session& s = (*sessions)[i];
    const auto t0 = Clock::now();
    w->conns[i]->Send(FeedLine(s, 0));
    s.at.push_back(t0);  // send time until the reply lands
    s.feeds_sent = 1;
    conns.push_back(w->conns[i].get());
  }
  size_t answered = 0;
  while (answered < sessions->size()) {
    WaitReady(conns, 5000);
    for (size_t i = 0; i < conns.size(); ++i) {
      std::vector<std::string> lines;
      if (!conns[i]->ReadLines(&lines)) {
        *error = "connection closed during the first window";
        return false;
      }
      for (std::string& line : lines) {
        Session& s = (*sessions)[i];
        const auto now = Clock::now();
        s.latency_ms.push_back(1000.0 * Seconds(s.at.back(), now));
        s.at.back() = now;
        s.replies.push_back(std::move(line));
        ++answered;
      }
    }
  }
  return true;
}

/// Offline replay of one session through StreamState and the in-process
/// pipeline; returns, per feed, whether the reply matched.
std::vector<bool> CheckSession(const Session& s, core::UnitsPipeline* p,
                               Tracer* tr) {
  StreamState::Config cfg;
  cfg.model = kModel;
  cfg.channels = kChannels;
  cfg.window = kWindow;
  cfg.stride = kStride;
  cfg.normalize = true;
  cfg.quantile = kQuantile;
  StreamState offline(cfg);
  const int64_t fed = kWindow + (s.feeds_sent - 1) * kStride;
  const auto windows = offline.Feed(units::ops::Slice(s.series, 1, 0, fed));
  std::vector<bool> ok(static_cast<size_t>(s.feeds_sent), false);
  if (static_cast<int64_t>(windows.size()) != s.feeds_sent) {
    return ok;
  }
  // Predict in batches (bitwise row-invariant), recalibrate in order.
  const int64_t n = static_cast<int64_t>(windows.size());
  for (int64_t start = 0; start < n; start += 64) {
    const int64_t len = std::min<int64_t>(64, n - start);
    Tensor batch = Tensor::Zeros({len, kChannels, kWindow});
    for (int64_t i = 0; i < len; ++i) {
      const Tensor& v = windows[static_cast<size_t>(start + i)].values;
      std::copy(v.data(), v.data() + v.numel(),
                batch.data() + i * kChannels * kWindow);
    }
    auto res = [&] {
      ScopedSpan span(tr, "plan", "UnitsPipeline::Predict[offline]");
      return p->Predict(batch);
    }();
    if (!res.ok()) {
      return ok;
    }
    const int64_t per_row =
        static_cast<int64_t>(res->labels.size()) / std::max<int64_t>(1, len);
    for (int64_t i = 0; i < len; ++i) {
      const int64_t k = start + i;
      if (k >= static_cast<int64_t>(s.replies.size())) {
        break;
      }
      const Tensor scores = units::ops::Slice(res->scores, 0, i, 1);
      std::vector<int64_t> labels(res->labels.begin() + per_row * i,
                                  res->labels.begin() + per_row * (i + 1));
      const std::optional<float> threshold =
          offline.RecalibrateLabels(scores, &labels);
      auto reply = json::Parse(s.replies[static_cast<size_t>(k)]);
      if (!reply.ok() || !reply->Contains("ok") || !reply->at("ok").AsBool() ||
          !reply->Contains("windows") || reply->at("windows").size() != 1) {
        continue;
      }
      const json::JsonValue& got = reply->at("windows")[0];
      bool same = got.Contains("ok") && got.at("ok").AsBool() &&
                  got.at("index").AsInt() ==
                      windows[static_cast<size_t>(k)].index &&
                  got.Contains("labels") &&
                  got.at("labels").ToInts() == labels && got.Contains("scores") &&
                  got.at("scores").Dump() == core::TensorToJson(scores).Dump();
      if (res->predictions.numel() > 0) {
        same = same && got.Contains("predictions") &&
               got.at("predictions").Dump() ==
                   core::TensorToJson(
                       units::ops::Slice(res->predictions, 0, i, 1))
                       .Dump();
      }
      if (threshold.has_value()) {
        same = same && got.Contains("threshold") &&
               static_cast<float>(got.at("threshold").AsNumber()) == *threshold;
      } else {
        same = same && !got.Contains("threshold");
      }
      ok[static_cast<size_t>(k)] = same;
    }
  }
  return ok;
}

}  // namespace

RunResult RunStream(const Context& ctx) {
  RunResult r;
  Tracer* tr = ctx.tracer;
  units::base::SetNumThreads(1);
  std::string error;

  // Preparation (untimed): the model file and each session's series.
  const std::string model_path = ctx.work_dir + "/anomaly.json";
  if (!PrepareModel(ctx, ModelKind::kAnomaly, model_path, &error)) {
    r.Fail("prepare model: " + error);
    return r;
  }
  std::vector<Session> sessions(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Session& s = sessions[static_cast<size_t>(i)];
    s.series = MakeMonitorSeries(SubSeed(ctx.seed, "session-" +
                                                        std::to_string(i)),
                                 kChannels, kWindow + kStride * kMaxFeeds,
                                 true);
    const int64_t length = s.series.dim(1);
    for (int64_t k = 0; k < kMaxFeeds; ++k) {
      const auto [from, count] = FeedSpan(k);
      s.chunks.push_back(NestedJsonArray(s.series.data() + from, kChannels,
                                         count, length));
    }
  }
  const std::string warm_payload =
      NestedJsonArray(sessions[0].series.data(), kChannels, kWindow,
                      sessions[0].series.dim(1));

  const int reps = ctx.reduced ? 1 : 7;
  std::vector<double> setup_s;
  auto worker = std::make_unique<Worker>();
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) {
      worker = std::make_unique<Worker>();  // stops the previous worker
    }
    const auto t0 = Clock::now();
    if (!SetUp(ctx, model_path, warm_payload, &sessions, worker.get(),
               &error)) {
      r.Fail("set-up: " + error);
      return r;
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  std::optional<json::JsonValue> stats_before;
  if (ctx.traced) {
    stats_before = CallJson(&worker->control, "{\"op\":\"stats\"}", &error);
  }

  // Closed-loop replay.
  const double duration = ctx.reduced ? 2.0 : std::max(4.0, 0.8 * ctx.seconds);
  std::vector<Conn*> conns;
  for (auto& c : worker->conns) {
    conns.push_back(c.get());
  }
  const int64_t root = tr->current();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(duration));
  std::vector<Clock::time_point> sent_at(kSessions);
  std::vector<bool> waiting(kSessions, false);
  auto send = [&](size_t i) {
    Session& s = sessions[i];
    if (s.feeds_sent >= kMaxFeeds) {
      return;
    }
    sent_at[i] = Clock::now();
    conns[i]->Send(FeedLine(s, s.feeds_sent));
    ++s.feeds_sent;
    waiting[i] = true;
  };
  for (size_t i = 0; i < sessions.size(); ++i) {
    send(i);
  }
  const auto drain_deadline = end + std::chrono::seconds(10);
  for (;;) {
    const bool any_waiting =
        std::any_of(waiting.begin(), waiting.end(), [](bool b) { return b; });
    if (!any_waiting || Clock::now() > drain_deadline) {
      break;
    }
    WaitReady(conns, 2000);
    for (size_t i = 0; i < conns.size(); ++i) {
      std::vector<std::string> lines;
      conns[i]->ReadLines(&lines);
      for (std::string& line : lines) {
        const auto at = Clock::now();
        Session& s = sessions[i];
        tr->Add("serve", "stream_feed", sent_at[i], at, root,
                static_cast<int64_t>(s.replies.size()));
        s.latency_ms.push_back(1000.0 * Seconds(sent_at[i], at));
        s.at.push_back(at);
        s.replies.push_back(std::move(line));
        waiting[i] = false;
        if (at < end) {
          send(i);
        }
      }
    }
  }
  std::optional<json::JsonValue> stats_after =
      CallJson(&worker->control, "{\"op\":\"stats\"}", &error);
  const double rss = PeakRssMiB(worker->proc.pid());

  // Checks: offline replay of every session (outside the timed phase).
  units::base::SetNumThreads(4);
  auto reference = LoadForServing(model_path, false, &error);
  units::base::SetNumThreads(1);
  if (reference == nullptr) {
    r.Fail("reference load: " + error);
    return r;
  }
  std::vector<double> ok_at_s, ok_ms;  // OK replay feeds: reply time, latency
  PhaseStats first("first_windows");
  PhaseStats replay("replay");
  units::base::SetNumThreads(4);
  for (Session& s : sessions) {
    const std::vector<bool> match = CheckSession(s, reference.get(), tr);
    for (int64_t k = 0; k < s.feeds_sent; ++k) {
      PhaseStats* phase = k == 0 ? &first : &replay;
      phase->Attempt();
      if (k >= static_cast<int64_t>(s.replies.size())) {
        continue;  // unanswered
      }
      auto reply = json::Parse(s.replies[static_cast<size_t>(k)]);
      const bool ok = reply.ok() && reply->Contains("ok") &&
                      reply->at("ok").AsBool();
      std::string err;
      if (reply.ok() && !ok && reply->Contains("error") &&
          reply->at("error").is_string()) {
        err = reply->at("error").AsString();
      }
      Outcome outcome = ClassifyReply(ok, err);
      if (outcome == Outcome::kOk && !match[static_cast<size_t>(k)]) {
        outcome = Outcome::kWrong;
      }
      phase->Record(outcome, s.latency_ms[static_cast<size_t>(k)]);
      if (k > 0 && outcome == Outcome::kOk) {
        ok_at_s.push_back(Seconds(start, s.at[static_cast<size_t>(k)]));
        ok_ms.push_back(s.latency_ms[static_cast<size_t>(k)]);
      }
    }
  }
  units::base::SetNumThreads(1);
  r.Account(first);
  r.Account(replay);
  if (first.wrong() + replay.wrong() > 0) {
    r.Fail("stream verdicts differ from the offline replay");
  }
  if (!ctx.reduced && replay.ok() < 1000) {
    r.Fail("stream replay has fewer than 1000 OK samples");
  }

  // Goodput and latency quantiles are means over equal time segments of
  // the replay, each holding about kSegmentFeeds OK feeds (so each
  // segment's p99 has 10 samples beyond it). Host contention comes in
  // bursts of seconds, and a segment's p99 jumps between two levels with
  // whether more than 1% of its feeds missed their batch; the mean over
  // segments moves smoothly with the share of bad segments, where a
  // quantile over the whole replay jumps between the levels.
  const double replay_s = Seconds(start, end);
  const int segments = std::max<int>(
      1, static_cast<int>(ok_ms.size()) / static_cast<int>(kSegmentFeeds));
  std::vector<double> seg_goodput, seg_p50, seg_p99;
  for (const std::vector<double>& seg :
       SplitBySegment(ok_at_s, ok_ms, replay_s, segments)) {
    seg_goodput.push_back(static_cast<double>(seg.size()) /
                          (replay_s / segments));
    seg_p50.push_back(Quantile(seg, 0.5));
    seg_p99.push_back(Quantile(seg, 0.99));
  }
  std::string per_segment;
  for (size_t g = 0; g < seg_p99.size(); ++g) {
    per_segment += " [" + FormatNumber(seg_goodput[g]) + "/s p50 " +
                FormatNumber(seg_p50[g]) + " p99 " + FormatNumber(seg_p99[g]) +
                "]";
  }
  r.Note("stream: replay segments" + per_segment);
  if (stats_after.has_value()) {
    r.Note("stream: batch histogram after replay " +
           SumWorkerStats({*stats_after}).histogram);
  }
  r.Set("setup_s", Median(setup_s), "s");
  r.Set("goodput_rps", Mean(seg_goodput), "1/s");
  r.Set("p50_ms", Mean(seg_p50), "ms");
  r.Set("client.p99_ms", Mean(seg_p99), "ms");
  r.Set("peak_rss_mb", rss, "MiB");

  if (ctx.traced && stats_before.has_value() && stats_after.has_value()) {
    const WorkerStats wa = SumWorkerStats({*stats_before});
    const WorkerStats wb = SumWorkerStats({*stats_after});
    r.Set("serve.server_p50_ms", wb.p50_ms, "ms");
    r.Set("serve.frontend_ms",
          Quantile(replay.ok_latencies(), 0.5) - wb.p50_ms, "ms");
    r.Set("serve.batch_ms", wb.batch_ms, "ms");
    const int64_t db = wb.batches - wa.batches;
    r.Set("serve.mean_batch_size",
          db > 0 ? static_cast<double>(wb.requests - wa.requests) /
                       static_cast<double>(db)
                 : 0.0,
          "rows");
    r.Set("serve.shed", static_cast<double>(wb.shed), "count");
    r.Set("serve.timed_out", static_cast<double>(wb.timed_out), "count");
    r.Set("plan.planned_share", wb.PlannedShare(), "share");
    r.Set("plan.plans", static_cast<double>(wb.plans), "count");
    r.Set("plan.arena_bytes_max", static_cast<double>(wb.arena_bytes_max),
          "bytes");

    // In-process layer numbers on this workload's model and chunks.
    r.Set("core.load_model_ms", MedianMs(3, [&] {
            std::string e;
            (void)LoadForServing(model_path, false, &e);
          }),
          "ms");
    Tensor b4 = Tensor::Zeros({4, kChannels, kWindow});
    for (int64_t i = 0; i < 4; ++i) {
      const Tensor& series = sessions[static_cast<size_t>(i)].series;
      for (int64_t d = 0; d < kChannels; ++d) {
        std::copy(series.data() + d * series.dim(1),
                  series.data() + d * series.dim(1) + kWindow,
                  b4.data() + (i * kChannels + d) * kWindow);
      }
    }
    (void)reference->Predict(b4);  // capture
    r.Set("plan.stream_predict_ms_b4",
          MedianMs(21, [&] { (void)reference->Predict(b4); }), "ms");
    StreamState::Config cfg;
    cfg.model = kModel;
    cfg.channels = kChannels;
    cfg.window = kWindow;
    cfg.stride = kStride;
    cfg.normalize = true;
    cfg.quantile = kQuantile;
    StreamState state(cfg);
    const Session& s0 = sessions[0];
    std::vector<double> feed_us;
    for (int64_t k = 0; k < s0.feeds_sent; ++k) {
      const auto [from, count] = FeedSpan(k);
      const Tensor chunk = units::ops::Slice(s0.series, 1, from, count);
      const auto t0 = Clock::now();
      (void)state.Feed(chunk);
      feed_us.push_back(1e6 * Seconds(t0, Clock::now()));
    }
    r.Set("serve.stream_feed_us", Median(feed_us), "us");
    std::vector<std::string> requests, replies;
    for (int64_t k = 1; k < std::min<int64_t>(s0.feeds_sent, 513); ++k) {
      requests.push_back(FeedLine(s0, k));
      if (k < static_cast<int64_t>(s0.replies.size())) {
        replies.push_back(s0.replies[static_cast<size_t>(k)]);
      }
    }
    JsonMetrics(requests, replies, &r);
  }
  return r;
}

}  // namespace unitsbench
