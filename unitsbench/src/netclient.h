#ifndef UNITSBENCH_NETCLIENT_H_
#define UNITSBENCH_NETCLIENT_H_

// Out-of-process plumbing: launching the repository's serving binaries and
// speaking NDJSON to them over loopback TCP.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace unitsbench {

/// A launched binary. Its stderr goes to a log file, which is where the
/// "listening on port P" announcement is read from. Stop() (also run by
/// the destructor) sends SIGTERM, waits, escalates to SIGKILL, and reaps.
class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with `env` entries ("K=V") added to the environment.
  bool Start(const std::vector<std::string>& argv,
             const std::vector<std::string>& env, const std::string& log_path,
             std::string* error);
  /// Waits for the port announcement; -1 on timeout or early exit.
  int WaitForPort(double timeout_s);
  bool Alive();
  pid_t pid() const { return pid_; }
  /// Graceful stop; returns the exit status (or -1 if it had to be killed).
  int Stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
  std::string log_path_;
};

/// One client connection (non-blocking socket, TCP_NODELAY set the way a
/// latency-sensitive client sets it).
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port, std::string* error);
  void Close();
  int fd() const { return fd_; }

  /// Queues bytes and writes as much as the socket takes now.
  bool Send(const std::string& data);
  /// Writes queued bytes; false on a socket error.
  bool Flush();
  bool want_write() const { return !wbuf_.empty(); }
  /// Reads what is available and appends complete lines (without '\n');
  /// false when the peer closed or the socket failed.
  bool ReadLines(std::vector<std::string>* lines);
  /// Blocking request/response for control ops.
  bool Call(const std::string& line, std::string* reply, double timeout_s);

 private:
  int fd_ = -1;
  std::string rbuf_;
  std::string wbuf_;
};

/// Blocks until one of `conns` is readable or writable (as wanted) or
/// `timeout_us` microseconds pass.
void WaitReady(const std::vector<Conn*>& conns, int64_t timeout_us);

}  // namespace unitsbench

#endif  // UNITSBENCH_NETCLIENT_H_
