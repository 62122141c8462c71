#include "netclient.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace unitsbench {

using SteadyClock = std::chrono::steady_clock;

bool Child::Start(const std::vector<std::string>& argv,
                  const std::vector<std::string>& env,
                  const std::string& log_path, std::string* error) {
  log_path_ = log_path;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }
  std::vector<std::string> envs;
  for (char** e = environ; *e != nullptr; ++e) {
    envs.emplace_back(*e);
  }
  for (const std::string& kv : env) {
    envs.push_back(kv);
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  std::vector<char*> cenv;
  for (const std::string& kv : envs) {
    cenv.push_back(const_cast<char*>(kv.c_str()));
  }
  cenv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_RDWR);
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(cargv[0], cargv.data(), cenv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  return true;
}

int Child::WaitForPort(double timeout_s) {
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(timeout_s);
  while (SteadyClock::now() < deadline) {
    std::ifstream log(log_path_);
    std::string line;
    while (std::getline(log, line)) {
      const std::string key = "listening on port ";
      const size_t at = line.find(key);
      if (at != std::string::npos) {
        return std::atoi(line.c_str() + at + key.size());
      }
    }
    if (!Alive()) {
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return -1;
}

bool Child::Alive() {
  if (pid_ <= 0) {
    return false;
  }
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

int Child::Stop(double grace_s) {
  if (pid_ <= 0) {
    return 0;
  }
  ::kill(pid_, SIGTERM);
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(grace_s);
  int status = 0;
  while (SteadyClock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return -1;
}

bool Conn::Connect(int port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return true;
}

void Conn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
  wbuf_.clear();
}

bool Conn::Send(const std::string& data) {
  wbuf_ += data;
  return Flush();
}

bool Conn::Flush() {
  while (!wbuf_.empty()) {
    const ssize_t n = ::send(fd_, wbuf_.data(), wbuf_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    return false;
  }
  return true;
}

bool Conn::ReadLines(std::vector<std::string>* lines) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;  // closed or failed
  }
  size_t start = 0;
  for (size_t nl = rbuf_.find('\n'); nl != std::string::npos;
       nl = rbuf_.find('\n', start)) {
    lines->emplace_back(rbuf_, start, nl - start);
    start = nl + 1;
  }
  rbuf_.erase(0, start);
  return true;
}

bool Conn::Call(const std::string& line, std::string* reply,
                double timeout_s) {
  if (!Send(line + "\n")) {
    return false;
  }
  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(timeout_s);
  std::vector<std::string> lines;
  while (SteadyClock::now() < deadline) {
    WaitReady({this}, 5000);
    if (want_write() && !Flush()) {
      return false;
    }
    if (!ReadLines(&lines)) {
      return false;
    }
    if (!lines.empty()) {
      *reply = lines.front();
      return true;
    }
  }
  return false;
}

void WaitReady(const std::vector<Conn*>& conns, int64_t timeout_us) {
  std::vector<pollfd> fds;
  for (Conn* c : conns) {
    pollfd p{};
    p.fd = c->fd();
    p.events = static_cast<short>(POLLIN | (c->want_write() ? POLLOUT : 0));
    fds.push_back(p);
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_us / 1000000);
  ts.tv_nsec = static_cast<long>((timeout_us % 1000000) * 1000);
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

}  // namespace unitsbench
