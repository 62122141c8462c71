// Self-tests for the benchmark harness: nearest-rank quantiles, the seeded
// Poisson schedule, open-loop latency timed from the scheduled send,
// failure accounting, and span self time. Run with
//   python3 unitsbench/run.py --selftest

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "loops.h"
#include "netclient.h"

namespace unitsbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestQuantile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  EXPECT(Quantile(v, 0.5) == 50.0);
  EXPECT(Quantile(v, 0.99) == 99.0);
  EXPECT(Quantile(v, 1.0) == 100.0);
  EXPECT(Quantile(v, 0.001) == 1.0);
  EXPECT(Quantile({7.0}, 0.99) == 7.0);
  EXPECT(Quantile({}, 0.5) == 0.0);
  // Nearest rank never interpolates: p99 of 1000 samples is the 990th.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) {
    w.push_back(i);
  }
  EXPECT(Quantile(w, 0.99) == 990.0);
  EXPECT(Median({3.0, 1.0, 2.0, 4.0}) == 2.0);
}

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(42, 300.0, 100.0);
  const std::vector<double> b = PoissonSchedule(42, 300.0, 100.0);
  const std::vector<double> c = PoissonSchedule(43, 300.0, 100.0);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(std::fabs(static_cast<double>(a.size()) / 100.0 - 300.0) < 15.0);
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) {
    increasing = increasing && a[i] > a[i - 1];
  }
  EXPECT(increasing);
  EXPECT(!a.empty() && a.back() < 100.0);
  // A shorter run of the same seed is a prefix of the longer one.
  const std::vector<double> p = PoissonSchedule(42, 300.0, 10.0);
  EXPECT(!p.empty() && std::equal(p.begin(), p.end(), a.begin()));
}

void TestFailureAccounting() {
  EXPECT(ClassifyReply(true, "") == Outcome::kOk);
  EXPECT(ClassifyReply(false, "overloaded") == Outcome::kShed);
  EXPECT(ClassifyReply(false, "request timed out after waiting 5 ms in queue") ==
         Outcome::kTimedOut);
  EXPECT(ClassifyReply(false, "NOT_FOUND: unknown model") == Outcome::kError);

  PhaseStats phase("t");
  for (int i = 0; i < 7; ++i) {
    phase.Attempt();
  }
  phase.Record(Outcome::kOk, 1.0);
  phase.Record(Outcome::kOk, 3.0);
  phase.Record(Outcome::kShed, 0.1);
  phase.Record(Outcome::kTimedOut, 9.0);
  phase.Record(Outcome::kError, 2.0);
  phase.Record(Outcome::kWrong, 1.5);
  EXPECT(phase.attempted() == 7);
  EXPECT(phase.ok() == 2);
  EXPECT(phase.shed() == 1);
  EXPECT(phase.timed_out() == 1);
  EXPECT(phase.errors() == 1);
  EXPECT(phase.wrong() == 1);
  EXPECT(phase.unanswered() == 1);
  EXPECT(phase.failed() == 5);
  // Only OK outcomes carry latency; shed latency is kept apart.
  EXPECT(phase.ok_latencies() == std::vector<double>({1.0, 3.0}));
  EXPECT(phase.shed_latencies() == std::vector<double>({0.1}));

  RunResult r;
  r.Account(phase);
  EXPECT(r.attempted == 7 && r.failed == 5 && r.correct);
}

/// Accepts one connection and answers every line with {"ok":true}.
void EchoServer(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      buf.erase(0, nl + 1);
      const char reply[] = "{\"ok\":true}\n";
      (void)!::send(fd, reply, sizeof(reply) - 1, MSG_NOSIGNAL);
    }
  }
  ::close(fd);
}

void TestOpenLoopTimesFromSchedule() {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), len) == 0);
  EXPECT(::listen(listen_fd, 1) == 0);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  std::thread server(EchoServer, listen_fd);

  Conn conn;
  std::string error;
  EXPECT(conn.Connect(ntohs(addr.sin_port), &error));
  // The generator starts 100 ms behind schedule: the first two requests
  // are already due (100 ms and 50 ms ago), the last two are not.
  const std::vector<double> offsets = {0.0, 0.05, 0.2, 0.25};
  std::vector<Sent> plan;
  std::vector<std::string> lines;
  for (int64_t i = 0; i < 4; ++i) {
    Sent s;
    s.index = i;
    plan.push_back(s);
    lines.push_back("{\"op\":\"ping\"}\n");
  }
  const std::vector<int> conn_of = {0, 0, 0, 0};
  Tracer tracer(false);
  std::vector<Received> replies;
  std::vector<double> late_ms;
  PhaseStats phase("open");
  const auto start = Clock::now() - std::chrono::milliseconds(100);
  OpenLoop({&conn}, start, offsets, plan, lines, conn_of, &tracer, "test",
           &replies, &late_ms, &phase);
  EXPECT(phase.attempted() == 4);
  EXPECT(replies.size() == 4);
  EXPECT(late_ms.size() == 4);
  if (replies.size() == 4 && late_ms.size() == 4) {
    EXPECT(late_ms[0] >= 100.0 && late_ms[1] >= 50.0);
    EXPECT(late_ms[2] < 40.0 && late_ms[3] < 40.0);
    // Latency includes the generator's lateness...
    EXPECT(replies[0].latency_ms >= 100.0);
    EXPECT(replies[1].latency_ms >= 50.0);
    // ...and is never shorter than the send-to-reply time.
    for (int i = 0; i < 4; ++i) {
      EXPECT(replies[static_cast<size_t>(i)].latency_ms >=
             late_ms[static_cast<size_t>(i)]);
      EXPECT(replies[static_cast<size_t>(i)].sent.index == i);
    }
    EXPECT(replies[2].latency_ms < 40.0);
  }
  conn.Close();
  server.join();
  ::close(listen_fd);
}

void TestSpanSelfTime() {
  Tracer tracer(true);
  const auto t0 = Clock::now();
  const int64_t root = tracer.Begin("bench", "root");
  tracer.Add("a", "child", t0 + std::chrono::milliseconds(2),
             t0 + std::chrono::milliseconds(5), root, -1);
  tracer.Add("a", "overlapping", t0 + std::chrono::milliseconds(4),
             t0 + std::chrono::milliseconds(6), root, -1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tracer.End(root);
  const auto self = tracer.SelfMsByLayer();
  EXPECT(std::fabs(self.at("a") - 5.0) < 0.01);
  // The children cover [2, 6) ms of the root: 4 ms of its duration.
  const double root_ms = self.at("bench") + 4.0;
  EXPECT(std::fabs(tracer.Coverage(root) - 4.0 / root_ms) < 0.01);
}

}  // namespace
}  // namespace unitsbench

int main() {
  unitsbench::TestQuantile();
  unitsbench::TestPoissonSchedule();
  unitsbench::TestFailureAccounting();
  unitsbench::TestOpenLoopTimesFromSchedule();
  unitsbench::TestSpanSelfTime();
  if (unitsbench::g_failures > 0) {
    std::printf("%d self-test check(s) failed\n", unitsbench::g_failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
