#ifndef UNITSBENCH_LOOPS_H_
#define UNITSBENCH_LOOPS_H_

// Client-side load generators over NDJSON connections. Each connection
// answers in request order, so replies are matched to requests by a
// per-connection FIFO.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "netclient.h"

namespace unitsbench {

/// One request of a phase: which model and payload, and the instant its
/// latency is timed from.
struct Sent {
  int64_t index = 0;
  size_t model = 0;
  int64_t payload = 0;
  Clock::time_point timed_from{};  // scheduled (open loop) or sent (closed)
};

/// A reply kept for the check that runs after the timed phase.
struct Received {
  Sent sent;
  double latency_ms = 0.0;
  Clock::time_point at{};
  std::string line;
};

/// The instant `offset_s` after `start`.
Clock::time_point ScheduledAt(Clock::time_point start, double offset_s);

/// Open loop: request i is due at start + offsets[i] and is sent then (or
/// as soon after as the generator gets to it) whatever the replies do.
/// Latency runs from the due time, so a stall also charges the requests
/// queued behind it; how late each send was goes to *late_ms. Requests
/// unanswered 10 s after the last send stay unanswered.
void OpenLoop(const std::vector<Conn*>& conns, Clock::time_point start,
              const std::vector<double>& offsets, const std::vector<Sent>& plan,
              const std::vector<std::string>& lines,
              const std::vector<int>& conn_of, Tracer* tr, const char* layer,
              std::vector<Received>* replies, std::vector<double>* late_ms,
              PhaseStats* phase);

/// Closed loop: every connection keeps `depth` requests in flight until
/// `duration_s` has passed, then drains. Returns the phase end.
Clock::time_point ClosedLoop(
    const std::vector<Conn*>& conns, int depth, double duration_s,
    const std::function<Sent(int64_t)>& make,
    const std::function<std::string(const Sent&)>& line, Tracer* tr,
    const char* layer, std::vector<Received>* replies, PhaseStats* phase);

}  // namespace unitsbench

#endif  // UNITSBENCH_LOOPS_H_
