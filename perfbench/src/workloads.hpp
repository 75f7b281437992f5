// The three workloads, one per way a user reaches a verdict (see
// perfbench/NOTES.md for why each exists and which layers it stresses).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen.hpp"
#include "measure.hpp"
#include "proc.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;   ///< the Release build holding selin_check / selin_ingestd
  std::string work_dir;  ///< scratch space inside the checkout
};

/// Each runs its workload for cfg.seconds.  Untraced, they report the
/// end-to-end metrics; traced, the per-layer ones, with spans in `tr`.
Report run_ingest(const Config& cfg, Tracer& tr);
Report run_offline(const Config& cfg, Tracer& tr);
Report run_enforced(const Config& cfg, Tracer& tr);

/// A selin_ingestd child serving a Unix-domain socket.
class Daemon {
 public:
  /// Spawns the daemon and waits for its READY line; `ready_ns` is spawn to
  /// READY.
  bool start(const Config& cfg, int64_t* ready_ns, std::string* err);
  const std::string& socket() const { return sock_; }
  /// The daemon's /metrics.json document.
  std::string metrics_json() const;
  /// Peak resident set so far, in kB.
  long peak_rss_kb() const;
  /// SIGTERM, then waits; returns the exit code and the final STATS line.
  int stop(std::string* stats_line);

 private:
  Child child_;
  std::string sock_;
};

/// What a closed loop of daemon sessions measured.
struct SessionStats {
  Samples connect_hello_us;  ///< connect + kHello -> kHelloAck
  Samples frame_ack_us;      ///< send_events, throttle retries included
  Samples verdict_ms;        ///< kBye -> final kVerdict
  uint64_t sessions = 0, frames = 0, throttles = 0, events = 0;
  int64_t first_hello_ns = std::numeric_limits<int64_t>::max();
  int64_t last_verdict_ns = 0;
  /// (kAck time, events) of every acked frame.
  std::vector<std::pair<int64_t, uint32_t>> acks;
  /// Events per second from the first kHello to the last final kVerdict:
  /// the median over 250 ms windows of that interval of the events acked in
  /// each (a burst of interference from outside the run moves a few
  /// windows, not the figure), or the whole interval when it is shorter
  /// than 1 s.
  double events_per_s() const;
  /// Windows behind events_per_s().
  size_t windows() const;
};

/// Streams sessions into the daemon: `threads` client threads with `conns`
/// connections each, every caller stop-and-wait.  Session k streams
/// pool[k % pool.size()] in kFrameEvents frames and ends with kBye; the
/// final verdict is checked against the planted one.  New sessions start
/// until `deadline_ns` or until `max_sessions` have started; sessions in
/// flight then finish.
SessionStats stream_sessions(const std::string& sock,
                             const std::vector<Planted>& pool, size_t threads,
                             size_t conns, int64_t deadline_ns,
                             uint64_t max_sessions, Tracer& tr, Report& rep);

/// net on a workload whose live path bypasses it: the histories, once each,
/// as sessions of a fresh daemon -> net.connect_hello_us, net.throttle_frac,
/// net.frame_ack_p50_us, net.frame_ack_p99_us.
void measure_net_replay(const Config& cfg, const std::vector<Planted>& hs,
                        Tracer& tr, Report& rep);

/// The net.* metrics of a closed loop.
void net_metrics(const SessionStats& d, Report& rep);

}  // namespace perfbench
