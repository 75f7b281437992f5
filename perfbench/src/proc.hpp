// Child processes of the benchmark (the daemon, the offline checker) and the
// plaintext HTTP probe of the daemon's stats endpoints.  Every child is
// started with a parent-death signal, so none outlives perfbench, and
// every start is paired with a wait.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  Child() = default;
  ~Child();  // kills (SIGKILL) and reaps a child still running
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with argv, stdout on a pipe, stderr inherited.
  bool start(const std::vector<std::string>& argv, std::string* err);

  /// Reads one stdout line; false on EOF or after `timeout_ms`.
  bool read_line(std::string& line, int timeout_ms);
  /// Reads stdout until EOF (true) or until `timeout_ms` pass (false).
  bool read_all(std::string* out, int timeout_ms);

  /// Sends `sig`.
  void signal(int sig);
  /// Blocks until the child exits.  Returns its exit code (128 + signal
  /// when killed); `max_rss_kb` receives its peak resident set.
  int wait(long* max_rss_kb = nullptr);

  pid_t pid() const { return pid_; }

 private:
  /// Appends what stdout has to buf_, waiting until `deadline_ns`; false on
  /// EOF (the pipe is then closed) or timeout.
  bool fill(int64_t deadline_ns);

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< -1 once stdout reached EOF
  std::string buf_;
};

/// Longest a child may run (or take to exit after SIGTERM) before it is
/// killed; a run must end within 180 s.
inline constexpr int kChildTimeoutMs = 60000;

/// Runs argv to completion, capturing stdout.  Returns the exit code (or -1
/// when it could not start; 128 + 9 when killed at kChildTimeoutMs);
/// `wall_ns` is start-to-reap time.
int run_child(const std::vector<std::string>& argv, std::string* out,
              int64_t* wall_ns, long* max_rss_kb);

/// Confines the calling thread to one CPU (best effort).
void pin_thread(int cpu);

/// The highest CPU this process may run on.
int last_cpu();

/// Peak resident set (VmHWM) of a live process, in kB; -1 when unreadable.
long vm_hwm_kb(pid_t pid);

/// "GET <path>" over the daemon's Unix-domain socket; returns the body of a
/// 200 response, or an empty string.
std::string http_get_uds(const std::string& socket_path,
                         const std::string& path);

}  // namespace perfbench
