#include "serve_common.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "base/parallel.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "data/window.h"
#include "inputs.h"
#include "tensor/tensor_ops.h"

namespace unitsbench {

namespace core = units::core;
namespace json = units::json;
using units::Tensor;

bool PrepareModel(const Context& ctx, ModelKind kind, const std::string& path,
                  std::string* error) {
  const int saved = units::base::NumThreads();
  units::base::SetNumThreads(4);
  core::UnitsPipeline::Config cfg;
  cfg.mode = core::ConfigMode::kManual;
  cfg.fusion = "concat";
  cfg.pretrain_params.SetInt("hidden_channels", 24);
  cfg.pretrain_params.SetInt("repr_dim", 48);
  cfg.pretrain_params.SetInt("num_blocks", 3);
  cfg.finetune_params.SetInt("epochs", 1);
  cfg.seed = SubSeed(ctx.seed, "model");
  units::data::TimeSeriesDataset train;
  int64_t channels = 0;
  if (kind == ModelKind::kClassifier) {
    channels = 3;
    cfg.templates = {"whole_series_contrastive", "subsequence_contrastive"};
    cfg.task = "classification";
    cfg.finetune_params.SetInt("num_classes", 4);
    LabeledWindows w =
        MakeClassWindows(SubSeed(ctx.seed, "model-train"), 64, 3, 96, 4);
    train = units::data::TimeSeriesDataset(w.x, w.y);
  } else {
    channels = 2;
    cfg.templates = {"masked_autoregression"};
    cfg.task = "anomaly_detection";
    const Tensor series = MakeMonitorSeries(SubSeed(ctx.seed, "model-train"),
                                            2, 96 + 32 * 63, false);
    train = units::data::TimeSeriesDataset(
        units::data::SlidingWindows(series, 96, 32));
  }
  auto created = core::UnitsPipeline::Create(cfg, channels);
  units::Status st = created.ok() ? (*created)->FineTune(train)
                                  : created.status();
  if (st.ok()) {
    st = (*created)->SaveJson(path);
  }
  units::base::SetNumThreads(saved);
  if (!st.ok()) {
    *error = st.ToString();
    return false;
  }
  return true;
}

std::unique_ptr<core::UnitsPipeline> LoadForServing(const std::string& path,
                                                    bool int8,
                                                    std::string* error) {
  auto loaded = core::UnitsPipeline::LoadJson(path);
  if (!loaded.ok()) {
    *error = loaded.status().ToString();
    return nullptr;
  }
  std::unique_ptr<core::UnitsPipeline> p = std::move(loaded).value();
  const units::Status st = p->EnsureReadyForServing();
  if (!st.ok()) {
    *error = st.ToString();
    return nullptr;
  }
  if (int8 && p->QuantizeInt8() == 0) {
    *error = "no layer quantized";
    return nullptr;
  }
  return p;
}

namespace {

/// Per-row dumps of a [N, ...] tensor, each as the [1, ...] tensor a
/// single-series reply carries.
std::vector<std::string> RowDumps(const Tensor& t) {
  std::vector<std::string> rows;
  if (t.numel() == 0) {
    return rows;
  }
  for (int64_t i = 0; i < t.dim(0); ++i) {
    rows.push_back(core::TensorToJson(units::ops::Slice(t, 0, i, 1)).Dump());
  }
  return rows;
}

}  // namespace

Reference::Reference(const core::TaskResult& batch)
    : predictions_(RowDumps(batch.predictions)),
      scores_(RowDumps(batch.scores)) {
  const int64_t rows = batch.predictions.numel() > 0
                           ? batch.predictions.dim(0)
                           : (batch.scores.numel() > 0 ? batch.scores.dim(0)
                                                       : 0);
  if (rows > 0 && !batch.labels.empty()) {
    const size_t per_row = batch.labels.size() / static_cast<size_t>(rows);
    for (int64_t i = 0; i < rows; ++i) {
      labels_.emplace_back(
          batch.labels.begin() + static_cast<int64_t>(per_row) * i,
          batch.labels.begin() + static_cast<int64_t>(per_row) * (i + 1));
    }
  }
}

bool Reference::Matches(const json::JsonValue& reply, int64_t row) const {
  const size_t i = static_cast<size_t>(row);
  if (i < labels_.size() && (!reply.Contains("labels") ||
                             reply.at("labels").ToInts() != labels_[i])) {
    return false;
  }
  if (i < predictions_.size() &&
      (!reply.Contains("predictions") ||
       reply.at("predictions").Dump() != predictions_[i])) {
    return false;
  }
  if (i < scores_.size() && (!reply.Contains("scores") ||
                             reply.at("scores").Dump() != scores_[i])) {
    return false;
  }
  return !labels_.empty() || !predictions_.empty() || !scores_.empty();
}

std::optional<json::JsonValue> CallJson(Conn* conn, const std::string& line,
                                        std::string* error) {
  std::string reply;
  if (!conn->Call(line, &reply, 30.0)) {
    *error = "no reply to " + line;
    return std::nullopt;
  }
  auto parsed = json::Parse(reply);
  if (!parsed.ok() || !parsed->is_object()) {
    *error = "bad reply: " + reply;
    return std::nullopt;
  }
  return std::move(parsed).value();
}

bool CallOk(Conn* conn, const std::string& line, std::string* error) {
  auto reply = CallJson(conn, line, error);
  if (!reply.has_value()) {
    return false;
  }
  if (!reply->Contains("ok") || !reply->at("ok").AsBool()) {
    *error = line + " -> " + reply->Dump();
    return false;
  }
  return true;
}

bool WaitHealthyShards(Conn* conn, int shards, double timeout_s,
                       std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    auto stats = CallJson(conn, "{\"op\":\"stats\"}", error);
    if (!stats.has_value()) {
      return false;
    }
    if (stats->Contains("router") &&
        stats->at("router").at("healthy_shards").AsInt() >= shards) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  *error = "shards did not become healthy";
  return false;
}

bool Burst(const std::vector<Conn*>& conns,
           const std::vector<std::vector<std::string>>& lines,
           double timeout_s, std::string* error) {
  std::vector<size_t> remaining;
  for (size_t i = 0; i < conns.size(); ++i) {
    std::string all;
    for (const std::string& l : lines[i]) {
      all += l;
    }
    conns[i]->Send(all);
    remaining.push_back(lines[i].size());
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    size_t left = 0;
    for (size_t n : remaining) {
      left += n;
    }
    if (left == 0) {
      return true;
    }
    if (Clock::now() > deadline) {
      *error = "burst timed out";
      return false;
    }
    WaitReady(conns, 5000);
    for (size_t i = 0; i < conns.size(); ++i) {
      if (conns[i]->want_write()) {
        conns[i]->Flush();
      }
      std::vector<std::string> got;
      if (!conns[i]->ReadLines(&got)) {
        *error = "connection closed during burst";
        return false;
      }
      for (const std::string& line : got) {
        auto parsed = json::Parse(line);
        if (!parsed.ok() || !parsed->Contains("ok") ||
            !parsed->at("ok").AsBool()) {
          *error = "burst reply not ok: " + line;
          return false;
        }
        if (remaining[i] > 0) {
          --remaining[i];
        }
      }
    }
  }
}

namespace {

void AddHistogram(const json::JsonValue& per_model,
                  std::map<int64_t, int64_t>* hist) {
  if (!per_model.is_object() || !per_model.Contains("batch_histogram")) {
    return;
  }
  for (const auto& [size, count] : per_model.at("batch_histogram").items()) {
    (*hist)[std::stoll(size)] += count.AsInt();
  }
}

}  // namespace

std::map<int64_t, int64_t> BatchHistogram(const json::JsonValue& stats,
                                          const std::string& model) {
  std::map<int64_t, int64_t> hist;
  if (stats.Contains("shards")) {  // router fan-out
    const json::JsonValue& shards = stats.at("shards");
    for (size_t i = 0; i < shards.size(); ++i) {
      if (shards[i].Contains("stats") &&
          shards[i].at("stats").Contains(model)) {
        AddHistogram(shards[i].at("stats").at(model), &hist);
      }
    }
  } else if (stats.Contains("stats") && stats.at("stats").Contains(model)) {
    AddHistogram(stats.at("stats").at(model), &hist);
  }
  return hist;
}

std::vector<json::JsonValue> DirectWorkerStats(
    const json::JsonValue& router_stats, std::string* error) {
  std::vector<json::JsonValue> out;
  if (!router_stats.Contains("shards")) {
    return out;
  }
  const json::JsonValue& shards = router_stats.at("shards");
  for (size_t i = 0; i < shards.size(); ++i) {
    Conn conn;
    if (!conn.Connect(static_cast<int>(shards[i].at("port").AsInt()), error)) {
      return {};
    }
    auto stats = CallJson(&conn, "{\"op\":\"stats\"}", error);
    if (!stats.has_value()) {
      return {};
    }
    out.push_back(std::move(*stats));
  }
  return out;
}

double WorkerStats::PlannedShare() const {
  const int64_t total = planned_chunks + dynamic_chunks;
  return total > 0 ? static_cast<double>(planned_chunks) /
                         static_cast<double>(total)
                   : 0.0;
}

WorkerStats SumWorkerStats(const std::vector<json::JsonValue>& workers) {
  WorkerStats w;
  std::map<int64_t, int64_t> hist;
  double p50_sum = 0.0;
  int p50_n = 0;
  int64_t batch_calls = 0;
  double batch_total_ms = 0.0;
  for (const json::JsonValue& reply : workers) {
    if (!reply.Contains("stats")) {
      continue;
    }
    const json::JsonValue& stats = reply.at("stats");
    for (const auto& [name, m] : stats.items()) {
      if (!m.is_object() || !m.Contains("latency_ms")) {
        continue;  // totals, admission, streams, server blocks
      }
      p50_sum += m.at("latency_ms").at("p50").AsNumber();
      ++p50_n;
      AddHistogram(m, &hist);
    }
    if (stats.Contains("totals")) {
      w.requests += stats.at("totals").at("requests").AsInt();
      w.batches += stats.at("totals").at("batches").AsInt();
    }
    if (stats.Contains("admission")) {
      w.shed += stats.at("admission").at("shed").AsInt();
      w.timed_out += stats.at("admission").at("timed_out").AsInt();
    }
    if (reply.Contains("plan") && reply.at("plan").Contains("models")) {
      for (const auto& [name, m] : reply.at("plan").at("models").items()) {
        w.plans += m.at("plans").AsInt();
        w.arena_bytes_max =
            std::max(w.arena_bytes_max, m.at("plan_arena_bytes").AsInt());
        w.planned_chunks += m.at("planned_chunks").AsInt();
        w.dynamic_chunks += m.at("dynamic_chunks").AsInt();
      }
    }
    if (reply.Contains("op_stats") &&
        reply.at("op_stats").Contains("serve.batch")) {
      const json::JsonValue& b = reply.at("op_stats").at("serve.batch");
      batch_calls += b.at("calls").AsInt();
      batch_total_ms += b.at("total_ms").AsNumber();
    }
  }
  w.p50_ms = p50_n > 0 ? p50_sum / p50_n : 0.0;
  w.batch_ms =
      batch_calls > 0 ? batch_total_ms / static_cast<double>(batch_calls) : 0.0;
  for (const auto& [size, count] : hist) {
    w.histogram += (w.histogram.empty() ? "" : " ") + std::to_string(size) +
                   ":" + std::to_string(count);
  }
  return w;
}

void InProcessPlanMetrics(const std::string& model_path, const Tensor& x,
                          RunResult* r) {
  const int saved = units::base::NumThreads();
  units::base::SetNumThreads(1);
  const Tensor b1 = units::ops::Slice(x, 0, 0, 1);
  const Tensor b16 = units::ops::Slice(x, 0, 0, 16);
  for (const bool int8 : {false, true}) {
    std::string error;
    auto p = LoadForServing(model_path, int8, &error);
    if (p == nullptr) {
      r->Fail("in-process load: " + error);
      break;
    }
    const char* tag = int8 ? "int8" : "fp32";
    const double cap1 = MedianMs(1, [&] { (void)p->Predict(b1); });
    const double cap16 = MedianMs(1, [&] { (void)p->Predict(b16); });
    if (!int8) {
      r->Set("plan.capture_ms_b1", cap1, "ms");
      r->Set("plan.capture_ms_b16", cap16, "ms");
    }
    r->Set(std::string("plan.predict_ms_b1.") + tag,
           MedianMs(41, [&] { (void)p->Predict(b1); }), "ms");
    r->Set(std::string("plan.predict_ms_b16.") + tag,
           MedianMs(9, [&] { (void)p->Predict(b16); }), "ms");
  }
  units::base::SetNumThreads(saved);
}

void JsonMetrics(const std::vector<std::string>& requests,
                 const std::vector<std::string>& replies, RunResult* r) {
  if (requests.empty() || replies.empty()) {
    return;
  }
  const size_t n = std::min<size_t>(requests.size(), 512);
  const double parse_ms = MedianMs(5, [&] {
    for (size_t i = 0; i < n; ++i) {
      (void)json::Parse(requests[i]);
    }
  });
  r->Set("json.parse_us", 1000.0 * parse_ms / static_cast<double>(n), "us");
  std::vector<json::JsonValue> parsed;
  for (size_t i = 0; i < std::min<size_t>(replies.size(), 512); ++i) {
    auto p = json::Parse(replies[i]);
    if (p.ok()) {
      parsed.push_back(std::move(p).value());
    }
  }
  if (parsed.empty()) {
    return;
  }
  const double render_ms = MedianMs(5, [&] {
    for (const json::JsonValue& v : parsed) {
      (void)v.Dump();
    }
  });
  r->Set("json.render_us",
         1000.0 * render_ms / static_cast<double>(parsed.size()), "us");
}

}  // namespace unitsbench
