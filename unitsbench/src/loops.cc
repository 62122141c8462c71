#include "loops.h"

#include <algorithm>
#include <chrono>
#include <deque>

namespace unitsbench {

Clock::time_point ScheduledAt(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

void OpenLoop(const std::vector<Conn*>& conns, Clock::time_point start,
              const std::vector<double>& offsets,
              const std::vector<Sent>& plan,
              const std::vector<std::string>& lines,
              const std::vector<int>& conn_of, Tracer* tr, const char* layer,
              std::vector<Received>* replies, std::vector<double>* late_ms,
              PhaseStats* phase) {
  std::vector<std::deque<Sent>> fifo(conns.size());
  const int64_t parent = tr->current();
  size_t next = 0;
  size_t outstanding = 0;
  bool draining = false;
  Clock::time_point drain_deadline{};
  for (;;) {
    const auto now = Clock::now();
    while (next < offsets.size() &&
           Seconds(start, now) >= offsets[next]) {
      Sent s = plan[next];
      s.timed_from = ScheduledAt(start, offsets[next]);
      late_ms->push_back(1000.0 * Seconds(s.timed_from, now));
      Conn* c = conns[static_cast<size_t>(conn_of[next])];
      phase->Attempt();
      c->Send(lines[next]);
      fifo[static_cast<size_t>(conn_of[next])].push_back(s);
      ++outstanding;
      ++next;
    }
    if (next == offsets.size()) {
      if (outstanding == 0) {
        break;
      }
      if (!draining) {
        draining = true;
        drain_deadline = now + std::chrono::seconds(10);
      } else if (now > drain_deadline) {
        break;  // the rest count as unanswered
      }
    }
    int64_t wait_us = 2000;
    if (next < offsets.size()) {
      const double due = offsets[next] - Seconds(start, Clock::now());
      wait_us = std::clamp<int64_t>(static_cast<int64_t>(due * 1e6), 0, 2000);
    }
    WaitReady(conns, wait_us);
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      if (conns[ci]->want_write()) {
        conns[ci]->Flush();
      }
      std::vector<std::string> lines_in;
      conns[ci]->ReadLines(&lines_in);
      const auto at = Clock::now();
      for (std::string& line : lines_in) {
        if (fifo[ci].empty()) {
          continue;
        }
        const Sent s = fifo[ci].front();
        fifo[ci].pop_front();
        --outstanding;
        tr->Add(layer, "predict", s.timed_from, at, parent, s.index);
        replies->push_back(Received{s, 1000.0 * Seconds(s.timed_from, at), at,
                                    std::move(line)});
      }
    }
  }
}

Clock::time_point ClosedLoop(const std::vector<Conn*>& conns, int depth,
                             double duration_s,
                             const std::function<Sent(int64_t)>& make,
                             const std::function<std::string(const Sent&)>& line,
                             Tracer* tr, const char* layer,
                             std::vector<Received>* replies,
                             PhaseStats* phase) {
  std::vector<std::deque<Sent>> fifo(conns.size());
  const int64_t parent = tr->current();
  int64_t next = 0;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(duration_s));
  auto send = [&](size_t ci) {
    Sent s = make(next++);
    s.timed_from = Clock::now();
    phase->Attempt();
    conns[ci]->Send(line(s));
    fifo[ci].push_back(s);
  };
  for (size_t ci = 0; ci < conns.size(); ++ci) {
    for (int k = 0; k < depth; ++k) {
      send(ci);
    }
  }
  const auto drain_deadline = end + std::chrono::seconds(10);
  for (;;) {
    size_t outstanding = 0;
    for (const auto& f : fifo) {
      outstanding += f.size();
    }
    const auto now = Clock::now();
    if (outstanding == 0 || now > drain_deadline) {
      break;
    }
    WaitReady(conns, 2000);
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      if (conns[ci]->want_write()) {
        conns[ci]->Flush();
      }
      std::vector<std::string> lines_in;
      conns[ci]->ReadLines(&lines_in);
      const auto at = Clock::now();
      for (std::string& l : lines_in) {
        if (fifo[ci].empty()) {
          continue;
        }
        const Sent s = fifo[ci].front();
        fifo[ci].pop_front();
        tr->Add(layer, "predict", s.timed_from, at, parent, s.index);
        replies->push_back(
            Received{s, 1000.0 * Seconds(s.timed_from, at), at, std::move(l)});
        if (at < end) {
          send(ci);
        }
      }
    }
  }
  return end;
}

}  // namespace unitsbench
