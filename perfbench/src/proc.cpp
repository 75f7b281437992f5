#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "measure.hpp"

namespace perfbench {

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait();
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

void pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

int last_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  for (int c = CPU_SETSIZE - 1; c > 0; --c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return 0;
}

bool Child::start(const std::vector<std::string>& argv, std::string* err) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *err = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  return true;
}

bool Child::fill(int64_t deadline_ns) {
  for (;;) {
    const int64_t left_ms = (deadline_ns - now_ns()) / 1'000'000;
    if (left_ms <= 0 || out_fd_ < 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char tmp[65536];
    const ssize_t n = ::read(out_fd_, tmp, sizeof tmp);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      return false;
    }
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }
}

bool Child::read_line(std::string& line, int timeout_ms) {
  const int64_t deadline = now_ns() + int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (!fill(deadline)) return false;
  }
}

bool Child::read_all(std::string* out, int timeout_ms) {
  const int64_t deadline = now_ns() + int64_t{timeout_ms} * 1'000'000;
  while (fill(deadline)) {
  }
  if (out != nullptr) *out = std::move(buf_);
  buf_.clear();
  return out_fd_ < 0;
}

void Child::signal(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
}

int Child::wait(long* max_rss_kb) {
  if (pid_ <= 0) return -1;
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (max_rss_kb != nullptr) *max_rss_kb = ru.ru_maxrss;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int run_child(const std::vector<std::string>& argv, std::string* out,
              int64_t* wall_ns, long* max_rss_kb) {
  Child c;
  std::string err;
  const int64_t t0 = now_ns();
  if (!c.start(argv, &err)) return -1;
  if (!c.read_all(out, kChildTimeoutMs)) c.signal(SIGKILL);
  const int code = c.wait(max_rss_kb);
  if (wall_ns != nullptr) *wall_ns = now_ns() - t0;
  return code;
}

long vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

std::string http_get_uds(const std::string& socket_path,
                         const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) return {};
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  std::string resp;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        resp.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = resp.find("\r\n\r\n");
  if (resp.find(" 200 ") == std::string::npos || body == std::string::npos) {
    return {};
  }
  return resp.substr(body + 4);
}

}  // namespace perfbench
