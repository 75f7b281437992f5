// ingest_uds: a live selin_ingestd over a Unix-domain socket, driven the way
// a client of the daemon sees it — socket to verdict.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "layers.hpp"
#include "selin/net/ingest_client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kDaemonLanes = 2;     // daemon + client threads fit 4 cores
constexpr size_t kClientThreads = 2;
constexpr size_t kConnsPerThread = 2;  // 4 concurrent connections
constexpr int kSetupSpawns = 30;
constexpr int kReadyTimeoutMs = 10000;
constexpr int64_t kWindowNs = 250'000'000;  // events_per_s windows

/// One connection slot of a client thread.
struct Slot {
  selin::net::IngestClient client;
  const Planted* in = nullptr;
  uint64_t session = 0;
  size_t off = 0;
  uint32_t span = Tracer::kNone;
};

struct ThreadOut {
  SessionStats d;
  Report rep;
  Tracer tr;
  explicit ThreadOut(bool trace) : tr(trace) {}
};

void check_verdict(const Planted& in, uint64_t session,
                   const selin::net::VerdictBody& v, Report& rep) {
  using selin::net::WireStatus;
  const WireStatus expect =
      in.linearizable ? WireStatus::kOk : WireStatus::kRejected;
  const std::string who = "session " + std::to_string(session) + ": ";
  if (v.status == WireStatus::kOverflowed) {
    rep.fail(who + "overflowed");
  } else if (v.status != expect) {
    rep.fail(who + "verdict " + std::to_string(static_cast<int>(v.status)) +
             " != planted " + std::to_string(static_cast<int>(expect)));
  } else if (in.linearizable && v.events_fed != in.events.size()) {
    rep.fail(who + "events_fed " + std::to_string(v.events_fed) + " != " +
             std::to_string(in.events.size()));
  } else if (!in.linearizable && v.first_bad >= in.events.size()) {
    rep.fail(who + "first_bad out of range");
  }
}

void client_loop(const std::string& sock, const std::vector<Planted>& pool,
                 size_t conns, int64_t deadline, uint64_t max_sessions,
                 std::atomic<uint64_t>& next, ThreadOut& out) {
  SessionStats& d = out.d;
  Tracer& tr = out.tr;
  std::vector<Slot> slots(conns);
  std::string err;
  for (;;) {
    bool active = false;
    for (Slot& s : slots) {
      if (s.in == nullptr) {
        if (now_ns() >= deadline) continue;
        const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= max_sessions) continue;
        active = true;
        s.in = &pool[k % pool.size()];
        s.session = k;
        s.off = 0;
        s.client = selin::net::IngestClient();
        s.span = tr.begin("session", k);
        const int64_t t0 = now_ns();
        bool ok;
        {
          Scope span(tr, "net.connect_hello", k, s.span);
          ok = s.client.connect_uds(sock, &err) &&
               s.client.hello(static_cast<uint8_t>(s.in->kind),
                              "s" + std::to_string(k), nullptr, &err);
        }
        const int64_t t1 = now_ns();
        d.first_hello_ns = std::min(d.first_hello_ns, t0);
        if (!ok) {
          out.rep.fail("session " + std::to_string(k) + ": " + err);
          ++d.sessions;
          s.client.close();
          s.in = nullptr;
          if (s.span != Tracer::kNone) tr.end(s.span);
          continue;
        }
        d.connect_hello_us.add(static_cast<double>(t1 - t0) / 1e3);
        continue;
      }
      active = true;
      const History& h = s.in->events;
      if (s.off < h.size()) {
        const size_t n = std::min(kFrameEvents, h.size() - s.off);
        const uint64_t before = s.client.throttles();
        const int64_t t0 = now_ns();
        bool ok;
        {
          Scope span(tr, "net.frame_ack", s.session, s.span);
          ok = s.client.send_events({h.data() + s.off, n}, &err);
        }
        const int64_t t1 = now_ns();
        if (!ok) {
          out.rep.fail("session " + std::to_string(s.session) + ": " + err);
          s.off = h.size();  // go straight to kBye
          continue;
        }
        d.frame_ack_us.add(static_cast<double>(t1 - t0) / 1e3);
        d.acks.emplace_back(t1, static_cast<uint32_t>(n));
        d.throttles += s.client.throttles() - before;
        ++d.frames;
        s.off += n;
        continue;
      }
      selin::net::VerdictBody v;
      const int64_t t0 = now_ns();
      bool ok;
      {
        Scope span(tr, "net.bye_verdict", s.session, s.span);
        ok = s.client.bye(&v, &err);
      }
      const int64_t t1 = now_ns();
      if (s.span != Tracer::kNone) tr.end(s.span);
      s.client.close();
      ++d.sessions;
      if (!ok) {
        out.rep.fail("session " + std::to_string(s.session) + ": bye: " + err);
      } else {
        d.verdict_ms.add(static_cast<double>(t1 - t0) / 1e6);
        d.last_verdict_ns = std::max(d.last_verdict_ns, t1);
        d.events += h.size();
        check_verdict(*s.in, s.session, v, out.rep);
      }
      s.in = nullptr;
    }
    if (!active) break;
  }
}

void merge(Report& into, const Report& from) {
  into.failed += from.failed;
  for (const std::string& f : from.failures) {
    if (into.failures.size() < 8) into.failures.push_back(f);
  }
}

}  // namespace

size_t SessionStats::windows() const {
  const int64_t span = last_verdict_ns - first_hello_ns;
  return span >= 4 * kWindowNs ? static_cast<size_t>(span / kWindowNs) : 0;
}

double SessionStats::events_per_s() const {
  const int64_t span = last_verdict_ns - first_hello_ns;
  if (span <= 0) return 0.0;
  const size_t n = windows();
  if (n == 0) return static_cast<double>(events) * 1e9 / static_cast<double>(span);
  std::vector<uint64_t> per(n, 0);
  for (const auto& [t, e] : acks) {
    const auto w = static_cast<size_t>((t - first_hello_ns) / kWindowNs);
    if (w < n) per[w] += e;
  }
  Samples rates;
  for (const uint64_t e : per) {
    rates.add(static_cast<double>(e) * 1e9 / static_cast<double>(kWindowNs));
  }
  return rates.median();
}

bool Daemon::start(const Config& cfg, int64_t* ready_ns, std::string* err) {
  static int serial = 0;
  sock_ = cfg.work_dir + "/d" + std::to_string(::getpid()) + "-" +
          std::to_string(serial++) + ".sock";
  const int64_t t0 = now_ns();
  if (!child_.start({cfg.bin_dir + "/selin_ingestd", "--uds", sock_,
                     "--lanes", std::to_string(kDaemonLanes)},
                    err)) {
    return false;
  }
  std::string line;
  if (!child_.read_line(line, kReadyTimeoutMs) ||
      line.rfind("READY uds=", 0) != 0) {
    *err = "selin_ingestd did not report READY (got '" + line + "')";
    return false;
  }
  *ready_ns = now_ns() - t0;
  return true;
}

std::string Daemon::metrics_json() const {
  return http_get_uds(sock_, "/metrics.json");
}

long Daemon::peak_rss_kb() const { return vm_hwm_kb(child_.pid()); }

int Daemon::stop(std::string* stats_line) {
  child_.signal(SIGTERM);
  std::string rest;
  if (!child_.read_all(&rest, kChildTimeoutMs)) child_.signal(SIGKILL);
  const size_t at = rest.find("STATS ");
  if (stats_line != nullptr) {
    *stats_line = at == std::string::npos ? "" : rest.substr(at + 6);
  }
  return child_.wait();
}

SessionStats stream_sessions(const std::string& sock,
                             const std::vector<Planted>& pool, size_t threads,
                             size_t conns, int64_t deadline_ns,
                             uint64_t max_sessions, Tracer& tr, Report& rep) {
  std::atomic<uint64_t> next{0};
  std::vector<ThreadOut> outs;
  outs.reserve(threads);
  for (size_t t = 0; t < threads; ++t) outs.emplace_back(tr.on());
  {
    std::vector<std::jthread> pool_threads;
    for (size_t t = 0; t < threads; ++t) {
      pool_threads.emplace_back([&, t] {
        client_loop(sock, pool, conns, deadline_ns, max_sessions, next,
                    outs[t]);
      });
    }
  }  // joins
  SessionStats d;
  for (const ThreadOut& o : outs) {
    d.connect_hello_us.append(o.d.connect_hello_us);
    d.frame_ack_us.append(o.d.frame_ack_us);
    d.verdict_ms.append(o.d.verdict_ms);
    d.sessions += o.d.sessions;
    d.frames += o.d.frames;
    d.throttles += o.d.throttles;
    d.events += o.d.events;
    d.acks.insert(d.acks.end(), o.d.acks.begin(), o.d.acks.end());
    d.first_hello_ns = std::min(d.first_hello_ns, o.d.first_hello_ns);
    d.last_verdict_ns = std::max(d.last_verdict_ns, o.d.last_verdict_ns);
    merge(rep, o.rep);
    tr.absorb(o.tr);
  }
  return d;
}

void net_metrics(const SessionStats& d, Report& rep) {
  rep.set("net.connect_hello_us", d.connect_hello_us.median(), "us",
          d.connect_hello_us.size());
  rep.set("net.throttle_frac",
          d.frames == 0 ? 0.0
                        : static_cast<double>(d.throttles) /
                              static_cast<double>(d.frames),
          "frac", d.frames);
  rep.set("net.frame_ack_p50_us", d.frame_ack_us.quantile(0.5), "us",
          d.frame_ack_us.size());
  rep.set("net.frame_ack_p99_us", d.frame_ack_us.quantile(0.99), "us",
          d.frame_ack_us.size());
}

namespace {

/// Stops the daemon and checks its own account of the run: a clean exit,
/// no protocol errors, and every event the clients saw acked counted once.
void stop_and_check(Daemon& daemon, uint64_t events_acked, Report& rep) {
  std::string stats;
  const int code = daemon.stop(&stats);
  if (code != 0) rep.fail("selin_ingestd exited with " + std::to_string(code));
  if (json_number(stats, "protocol_errors") != 0) {
    rep.fail("selin_ingestd counted protocol errors: " + stats.substr(0, 200));
  }
  const double served = json_number(stats, "events");
  if (served != static_cast<double>(events_acked)) {
    rep.fail("selin_ingestd counted " + std::to_string(served) +
             " events, the clients had " + std::to_string(events_acked) +
             " acked");
  }
}

}  // namespace

void measure_net_replay(const Config& cfg, const std::vector<Planted>& hs,
                        Tracer& tr, Report& rep) {
  Daemon daemon;
  int64_t ready = 0;
  std::string err;
  if (!daemon.start(cfg, &ready, &err)) {
    rep.fail("net replay: " + err);
    return;
  }
  const SessionStats d = stream_sessions(daemon.socket(), hs, 1, 1,
                                         std::numeric_limits<int64_t>::max(),
                                         hs.size(), tr, rep);
  net_metrics(d, rep);
  stop_and_check(daemon, d.events, rep);
}

Report run_ingest(const Config& cfg, Tracer& tr) {
  Report rep;
  const std::vector<Planted> pool =
      make_ingest_pool(cfg.seed, kIngestPool, kIngestSessionEvents);

  Samples setup_s;
  std::string err;
  for (int i = 0; i < kSetupSpawns; ++i) {
    Daemon d;
    int64_t ready = 0;
    if (!d.start(cfg, &ready, &err)) {
      rep.fail(err);
      return rep;
    }
    setup_s.add(static_cast<double>(ready) / 1e9);
    if (const int code = d.stop(nullptr); code != 0) {
      rep.fail("selin_ingestd exited with " + std::to_string(code));
    }
  }
  Daemon daemon;
  int64_t ready = 0;
  if (!daemon.start(cfg, &ready, &err)) {
    rep.fail(err);
    return rep;
  }
  setup_s.add(static_cast<double>(ready) / 1e9);
  rep.set("setup_s", setup_s.median(), "s", setup_s.size());

  const auto run_for = [&](double seconds, Tracer& spans) {
    const auto deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
    SessionStats d = stream_sessions(daemon.socket(), pool, kClientThreads,
                                     kConnsPerThread, deadline,
                                     std::numeric_limits<uint64_t>::max(),
                                     spans, rep);
    rep.attempted += d.sessions;
    return d;
  };
  if (!cfg.trace) {
    const SessionStats d = run_for(cfg.seconds, tr);
    rep.set("events_per_s", d.events_per_s(), "1/s", d.windows());
    rep.set("ops_per_s", d.events_per_s() / 2, "1/s", d.windows());
    rep.set("frame_ack_p50_us", d.frame_ack_us.quantile(0.5), "us",
            d.frame_ack_us.size());
    rep.set("frame_ack_p99_us", d.frame_ack_us.quantile(0.99), "us",
            d.frame_ack_us.size());
    rep.set("verdict_p50_ms", d.verdict_ms.quantile(0.5), "ms",
            d.verdict_ms.size());
    rep.set("verdict_p99_ms", d.verdict_ms.quantile(0.99), "ms",
            d.verdict_ms.size());
    rep.set("peak_rss_mb", static_cast<double>(daemon.peak_rss_kb()) / 1024.0,
            "MB");
    stop_and_check(daemon, d.events, rep);
    return rep;
  }

  // Traced: half the time plain, half with spans; the throughput ratio is
  // the tracing cost.
  Tracer off(false);
  const SessionStats plain = run_for(cfg.seconds / 2, off);
  const SessionStats traced = run_for(cfg.seconds / 2, tr);
  rep.set("trace_overhead_frac",
          plain.events_per_s() / std::max(traced.events_per_s(), 1.0) - 1,
          "frac");
  rep.set("verdict_p99_ms", plain.verdict_ms.quantile(0.99), "ms",
          plain.verdict_ms.size());
  net_metrics(traced, rep);
  service_instruments(snapshot_of(daemon.metrics_json(), rep), rep);
  stop_and_check(daemon, plain.events + traced.events, rep);

  // Layers behind the daemon, replayed in-process on the run's sessions.
  const std::vector<Planted> sample = take_events(pool, 1 << 16);
  measure_wire(sample, tr, rep);
  measure_io(sample, tr, rep);
  measure_engine(sample, true, tr, rep);
  service_timings(run_service(sample, kDaemonLanes, false, tr, rep), rep);
  service_speedup(sample, tr, rep);
  measure_core_replay(take_events(pool, 1 << 13), tr, rep);
  return rep;
}

}  // namespace perfbench
