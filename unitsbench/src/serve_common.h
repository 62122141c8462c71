#ifndef UNITSBENCH_SERVE_COMMON_H_
#define UNITSBENCH_SERVE_COMMON_H_

// Pieces the serve and stream workloads share: model preparation, the
// in-process reference answers, protocol helpers, and the reading of the
// workers' stats documents.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "json/json.h"
#include "netclient.h"
#include "workloads.h"

namespace unitsbench {

enum class ModelKind {
  kClassifier,  // 3 channels, 4 classes, two contrastive TCN encoders
  kAnomaly,     // 2 channels, masked_autoregression TCN encoder
};

/// Untimed preparation: fits a small model of `kind` on seeded inputs and
/// saves it to `path`.
bool PrepareModel(const Context& ctx, ModelKind kind, const std::string& path,
                  std::string* error);

/// Loads a fitted file the way a worker does (LoadJson +
/// EnsureReadyForServing), then quantizes it to int8 when asked.
std::unique_ptr<units::core::UnitsPipeline> LoadForServing(
    const std::string& path, bool int8, std::string* error);

/// Expected predict replies, one per row of a reference batch.
class Reference {
 public:
  Reference() = default;
  explicit Reference(const units::core::TaskResult& batch);
  /// True when the reply's labels and tensors equal row `row` bitwise.
  bool Matches(const units::json::JsonValue& reply, int64_t row) const;

 private:
  std::vector<std::vector<int64_t>> labels_;
  std::vector<std::string> predictions_;  // per-row TensorToJson dumps
  std::vector<std::string> scores_;
};

/// Sends one control line and parses the reply.
std::optional<units::json::JsonValue> CallJson(Conn* conn,
                                               const std::string& line,
                                               std::string* error);
/// Like CallJson, but the reply must say "ok": true.
bool CallOk(Conn* conn, const std::string& line, std::string* error);

/// Polls router stats until `shards` shards are healthy.
bool WaitHealthyShards(Conn* conn, int shards, double timeout_s,
                       std::string* error);

/// Sends every line of lines[i] on conns[i] at once and waits until each
/// has been answered "ok": true.
bool Burst(const std::vector<Conn*>& conns,
           const std::vector<std::vector<std::string>>& lines,
           double timeout_s, std::string* error);

/// Batch-size histogram of `model` from a worker or router stats reply.
std::map<int64_t, int64_t> BatchHistogram(const units::json::JsonValue& stats,
                                          const std::string& model);

/// Stats replies of every shard, asked of each worker directly (the
/// router keeps only their "stats" block, not "plan" or "op_stats").
std::vector<units::json::JsonValue> DirectWorkerStats(
    const units::json::JsonValue& router_stats, std::string* error);

/// Counters summed over worker stats replies.
struct WorkerStats {
  double p50_ms = 0.0;    // mean over models of the latency-ring p50
  double batch_ms = 0.0;  // op_stats serve.batch total ÷ calls
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t shed = 0;
  int64_t timed_out = 0;
  int64_t plans = 0;
  int64_t arena_bytes_max = 0;
  int64_t planned_chunks = 0;
  int64_t dynamic_chunks = 0;
  std::string histogram;  // "size:count ..." over all models
  double PlannedShare() const;
};
WorkerStats SumWorkerStats(const std::vector<units::json::JsonValue>& workers);

/// plan.capture_ms_b1/b16 and plan.predict_ms_b{1,16}.{fp32,int8} on one
/// intra-op thread, on fresh in-process loads of `model_path`.
void InProcessPlanMetrics(const std::string& model_path,
                          const units::Tensor& x, RunResult* r);

/// json.parse_us over the request lines and json.render_us of the replies.
void JsonMetrics(const std::vector<std::string>& requests,
                 const std::vector<std::string>& replies, RunResult* r);

}  // namespace unitsbench

#endif  // UNITSBENCH_SERVE_COMMON_H_
