#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/io/history_io.hpp"
#include "selin/lincheck/checker.hpp"
#include "selin/lincheck/monitor.hpp"
#include "selin/net/wire.hpp"
#include "selin/obs/export.hpp"
#include "selin/obs/hooks.hpp"
#include "selin/service/monitor_service.hpp"

namespace perfbench {

namespace {

std::span<const Event> frame_at(const History& h, size_t off) {
  return {h.data() + off, std::min(kFrameEvents, h.size() - off)};
}

/// The implementation a recorded history replays: Apply returns the
/// response the history recorded for that process's next completion.
class ReplayImpl final : public selin::IConcurrent {
 public:
  explicit ReplayImpl(const History& h) {
    for (const Event& e : h) {
      if (e.is_res()) recorded_[e.op.id.pid].push_back(e.result);
    }
  }
  const char* name() const override { return "replay"; }
  selin::Value apply(selin::ProcId p, const selin::OpDesc&) override {
    std::vector<selin::Value>& r = recorded_[p];
    size_t& next = next_[p];
    return next < r.size() ? r[next++] : selin::kNoArg;
  }

 private:
  std::unordered_map<selin::ProcId, std::vector<selin::Value>> recorded_;
  std::unordered_map<selin::ProcId, size_t> next_;
};

}  // namespace

SnapshotData snapshot_of(const std::string& doc, Report& rep) {
  SnapshotData snap;
  if (!parse_snapshot(doc, snap)) rep.fail("metrics document does not parse");
  return snap;
}

std::vector<Planted> take_events(const std::vector<Planted>& all,
                                 size_t max_events) {
  std::vector<Planted> out;
  size_t events = 0;
  for (const Planted& p : all) {
    if (!out.empty() && events + p.events.size() > max_events) break;
    events += p.events.size();
    out.push_back(p);
  }
  return out;
}

void measure_wire(const std::vector<Planted>& hs, Tracer& tr, Report& rep) {
  std::vector<std::vector<uint8_t>> bufs(hs.size());
  size_t events = 0;
  for (size_t i = 0; i < hs.size(); ++i) {
    const History& h = hs[i].events;
    uint32_t seq = 0;
    for (size_t off = 0; off < h.size(); off += kFrameEvents) {
      selin::net::append_events(bufs[i], 1, seq++, frame_at(h, off));
    }
    events += h.size();
  }
  // Decodes every buffer; with `check`, compares the events with the
  // originals.  Returns the number of events decoded.
  std::vector<Event> out;
  const auto decode_all = [&](bool check) {
    size_t decoded = 0;
    for (size_t i = 0; i < bufs.size(); ++i) {
      Scope span(tr, "net.wire_decode", i);
      const std::span<const uint8_t> buf(bufs[i]);
      size_t at = 0;
      size_t got = 0;
      while (at < buf.size()) {
        selin::net::FrameView f;
        if (selin::net::peek_frame(buf.subspan(at), f) !=
                selin::net::DecodeStatus::kFrame ||
            !selin::net::decode_events(f.body, out)) {
          break;
        }
        if (check && (got + out.size() > hs[i].events.size() ||
                      !std::equal(out.begin(), out.end(),
                                  hs[i].events.begin() +
                                      static_cast<ptrdiff_t>(got)))) {
          rep.fail("wire: history " + std::to_string(i) +
                   " decodes to different events");
          break;
        }
        got += out.size();
        at += f.frame_len;
      }
      decoded += got;
    }
    return decoded;
  };
  if (decode_all(true) != events) rep.fail("wire: frames lost events");
  constexpr int kReps = 5;
  Samples ns_per_event;
  for (int r = 0; r < kReps; ++r) {
    const int64_t t0 = now_ns();
    const size_t decoded = decode_all(false);
    const int64_t t1 = now_ns();
    ns_per_event.add(static_cast<double>(t1 - t0) /
                     static_cast<double>(decoded));
  }
  rep.set("net.wire_decode_ns_per_event", ns_per_event.median(), "ns",
          events * kReps);
}

void measure_io(const std::vector<Planted>& hs, Tracer& tr, Report& rep) {
  std::vector<std::string> texts;
  size_t events = 0;
  for (const Planted& p : hs) {
    texts.push_back(to_text(p.events));
    events += p.events.size();
  }
  constexpr int kReps = 3;
  Samples ns_per_event;
  std::vector<Event> batch;
  for (int r = 0; r < kReps; ++r) {
    int64_t busy = 0;
    for (size_t i = 0; i < texts.size(); ++i) {
      std::istringstream in(texts[i]);
      selin::HistoryStreamReader reader(in);
      size_t read = 0;
      const int64_t t0 = now_ns();
      try {
        Scope span(tr, "io.read_batch", i);
        for (;;) {
          batch.clear();
          const size_t n = reader.read_batch(batch, 512);
          if (n == 0) break;
          read += n;
        }
      } catch (const selin::HistoryParseError& e) {
        rep.fail(std::string("io: ") + e.what());
      }
      busy += now_ns() - t0;
      if (read != hs[i].events.size()) {
        rep.fail("io: read " + std::to_string(read) + " of " +
                 std::to_string(hs[i].events.size()) + " events");
      }
    }
    ns_per_event.add(static_cast<double>(busy) / static_cast<double>(events));
  }
  rep.set("io.read_batch_ns_per_event", ns_per_event.median(), "ns",
          events * kReps);
}

void engine_instruments(const SnapshotData& snap, Report& rep) {
  const double probes = snap.scalar("engine_dedup_probes");
  rep.set("engine.dedup_hit_rate",
          probes > 0 ? snap.scalar("engine_dedup_hits") / probes : 0.0, "frac");
  const auto peak = snap.maxima.find("engine_peak_frontier");
  rep.set("engine.peak_frontier", peak == snap.maxima.end() ? 0 : peak->second,
          "count");
  const HistogramData& rounds = snap.histogram("engine_round_ns");
  rep.set("engine.round_p99_us", rounds.quantile(0.99) / 1e3, "us",
          rounds.count);
}

void measure_engine(const std::vector<Planted>& hs, bool instruments,
                    Tracer& tr, Report& rep) {
  // Feeds every history once; returns (busy ns, events fed).
  const auto pass = [&](selin::obs::MetricsRegistry* reg) {
    int64_t busy = 0;
    uint64_t fed = 0;
    for (size_t i = 0; i < hs.size(); ++i) {
      const History& h = hs[i].events;
      const auto spec = selin::make_spec(hs[i].kind);
      const selin::obs::Labels labels{{"session", std::to_string(i)}};
      selin::obs::EngineHooks hooks;  // outlives the monitor that borrows it
      selin::LinMonitor m(*spec);
      if (reg != nullptr) {
        hooks = selin::obs::make_engine_hooks(*reg, labels);
        m.attach_obs(&hooks);
      }
      try {
        for (size_t off = 0; off < h.size() && m.ok(); off += kFrameEvents) {
          const auto frame = frame_at(h, off);
          const int64_t t0 = now_ns();
          {
            Scope span(tr, "engine.feed_batch", i);
            m.feed_batch(frame);
          }
          busy += now_ns() - t0;
          fed += frame.size();
        }
      } catch (const selin::CheckerOverflow&) {
        rep.fail("engine: exploration budget overflow on history " +
                 std::to_string(i));
      }
      if (!m.overflowed() && m.ok() != hs[i].linearizable) {
        rep.fail("engine: verdict " + std::string(m.ok() ? "ok" : "rejected") +
                 " on history " + std::to_string(i) + ", planted " +
                 (hs[i].linearizable ? "ok" : "rejected"));
      }
      if (reg != nullptr) selin::obs::sample_engine_stats(*reg, m.stats(), labels);
    }
    return std::pair<int64_t, uint64_t>{busy, fed};
  };
  constexpr int kReps = 3;
  Samples ns_per_event;
  uint64_t total = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto [busy, fed] = pass(nullptr);
    ns_per_event.add(static_cast<double>(busy) / static_cast<double>(fed));
    total += fed;
  }
  rep.set("engine.feed_batch_ns_per_event", ns_per_event.median(), "ns", total);
  if (instruments) {
    selin::obs::MetricsRegistry reg;
    pass(&reg);
    engine_instruments(snapshot_of(selin::obs::snapshot_json(reg), rep), rep);
  }
}

void service_instruments(const SnapshotData& snap, Report& rep) {
  const double rounds = snap.scalar("service_drain_rounds_total");
  rep.set("service.events_per_drain_round",
          rounds > 0 ? snap.scalar("service_events_drained_total") / rounds : 0,
          "count", static_cast<uint64_t>(rounds));
  const HistogramData& lag = snap.histogram("service_session_lag");
  rep.set("service.session_lag_p99", lag.quantile(0.99), "count", lag.count);
  const HistogramData& phase = snap.histogram("exec_phase_ns");
  rep.set("parallel.exec_phase_p99_us", phase.quantile(0.99) / 1e3, "us",
          phase.count);
}

ServiceRun run_service(const std::vector<Planted>& hs, size_t lanes,
                       bool observe, Tracer& tr, Report& rep) {
  namespace svc_ns = selin::service;
  svc_ns::ServiceOptions so;
  so.lanes = lanes;
  so.batch_limit = 512;  // selin_ingestd's default quantum
  so.observe = observe;
  svc_ns::MonitorService svc(so);
  std::vector<svc_ns::SessionId> ids;
  ServiceRun run;
  for (size_t i = 0; i < hs.size(); ++i) {
    ids.push_back(svc.open("h" + std::to_string(i), selin::make_spec(hs[i].kind)));
    run.events += hs[i].events.size();
  }
  std::vector<size_t> off(hs.size(), 0);
  const int64_t start = now_ns();
  const auto drain = [&] {
    const int64_t t0 = now_ns();
    size_t served;
    {
      Scope span(tr, "service.drain_round", 0);
      served = svc.drain_round();
    }
    run.drain_ns += now_ns() - t0;
    return served;
  };
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < hs.size(); ++i) {
      const History& h = hs[i].events;
      if (off[i] >= h.size()) continue;
      const auto frame = frame_at(h, off[i]);
      svc_ns::Session* s = svc.find(ids[i]);
      const int64_t t0 = now_ns();
      bool accepted;
      {
        Scope span(tr, "service.try_publish", i);
        accepted = s->try_publish(frame);
      }
      run.publish_ns += now_ns() - t0;
      if (accepted) off[i] += frame.size();
      more = more || off[i] < h.size();
    }
    drain();
  }
  while (drain() > 0) {
  }
  run.wall_ns = now_ns() - start;
  for (size_t i = 0; i < hs.size(); ++i) {
    const svc_ns::Session& s = svc.session(ids[i]);
    const bool ok = s.status() == svc_ns::Session::Status::kOk;
    if (s.status() == svc_ns::Session::Status::kOverflowed) {
      rep.fail("service: session " + std::to_string(i) + " overflowed");
    } else if (ok != hs[i].linearizable) {
      rep.fail("service: session " + std::to_string(i) + " verdict " +
               (ok ? "ok" : "rejected") + " against planted " +
               (hs[i].linearizable ? "ok" : "rejected"));
    } else if (ok && s.events_fed() != hs[i].events.size()) {
      rep.fail("service: session " + std::to_string(i) + " fed " +
               std::to_string(s.events_fed()) + " events");
    }
  }
  if (observe) run.metrics_json = svc.metrics_json();
  return run;
}

void service_timings(const ServiceRun& run, Report& rep) {
  const auto events = static_cast<double>(run.events);
  rep.set("service.try_publish_ns_per_event",
          static_cast<double>(run.publish_ns) / events, "ns", run.events);
  rep.set("service.drain_round_ns_per_event",
          static_cast<double>(run.drain_ns) / events, "ns", run.events);
}

void service_speedup(const std::vector<Planted>& hs, Tracer& tr, Report& rep) {
  const int64_t one = run_service(hs, 1, false, tr, rep).wall_ns;
  const int64_t four = run_service(hs, 4, false, tr, rep).wall_ns;
  rep.set("parallel.speedup_vs_1job",
          static_cast<double>(one) / static_cast<double>(std::max<int64_t>(four, 1)),
          "x");
}

void core_metrics(const CoreSamples& cs, const Tracer& tr,
                  const SnapshotData& snap, Report& rep) {
  const double wall = static_cast<double>(std::max<int64_t>(cs.wall_ns, 1));
  double attributed = 0;
  const auto stage = [&](const std::string& name, const Samples& s) {
    const double share = static_cast<double>(tr.self_ns(name)) / wall;
    attributed += share;
    rep.set(name + "_p50_us", s.quantile(0.5), "us", s.size());
    rep.set(name + "_p99_us", s.quantile(0.99), "us", s.size());
    rep.set(name + "_share", share, "frac");
  };
  stage("core.astar_apply", cs.astar_us);
  stage("core.publish", cs.publish_us);
  stage("core.check", cs.check_us);
  rep.set("core.unattributed_frac", 1.0 - attributed, "frac");
  const HistogramData& resync = snap.histogram("leveled_resync_ns");
  rep.set("views.resync_p99_us", resync.quantile(0.99) / 1e3, "us",
          resync.count);
  const HistogramData& rollback = snap.histogram("leveled_rollback_depth");
  rep.set("views.rollback_depth_mean", rollback.mean(), "count",
          rollback.count);
  rep.set("engine.level_feeds_per_op",
          cs.ops == 0 ? 0.0
                      : static_cast<double>(cs.events_fed) /
                            static_cast<double>(cs.ops),
          "count", cs.ops);
}

void measure_core_replay(const std::vector<Planted>& hs, Tracer& tr,
                         Report& rep) {
  CoreSamples cs;
  selin::obs::MetricsRegistry reg;
  const selin::obs::LeveledHooks hooks = selin::obs::make_leveled_hooks(reg);
  const int64_t start = now_ns();
  for (size_t i = 0; i < hs.size(); ++i) {
    const History& h = hs[i].events;
    size_t n = 0;
    for (const Event& e : h) n = std::max<size_t>(n, e.op.id.pid + 1);
    ReplayImpl impl(h);
    const auto obj = selin::make_linearizable_object(selin::make_spec(hs[i].kind));
    selin::AStar astar(n, impl);
    selin::SteppedAStar step(astar);
    selin::MonitorCore::Options opts;
    opts.obs = &hooks;
    selin::MonitorCore core(n, n, *obj, opts);
    std::vector<int64_t> announce_ns(n, 0);
    bool flagged = false;
    for (const Event& e : h) {
      const selin::ProcId p = e.op.id.pid;
      if (e.is_inv()) {
        const int64_t t0 = now_ns();
        {
          Scope span(tr, "core.astar_apply", i);
          step.announce(p, e.op.method, e.op.arg);
        }
        announce_ns[p] = now_ns() - t0;
        continue;
      }
      Scope op(tr, "op", i);
      const int64_t t0 = now_ns();
      selin::AStar::Result r;
      {
        Scope span(tr, "core.astar_apply", i, op.handle());
        step.invoke(p);
        r = step.complete(p);
      }
      const int64_t t1 = now_ns();
      {
        Scope span(tr, "core.publish", i, op.handle());
        core.publish(p, r.op, r.y, std::move(r.view));
      }
      const int64_t t2 = now_ns();
      bool ok;
      {
        Scope span(tr, "core.check", i, op.handle());
        ok = core.check(p);
      }
      const int64_t t3 = now_ns();
      cs.astar_us.add(static_cast<double>(announce_ns[p] + t1 - t0) / 1e3);
      cs.publish_us.add(static_cast<double>(t2 - t1) / 1e3);
      cs.check_us.add(static_cast<double>(t3 - t2) / 1e3);
      ++cs.ops;
      if (!ok) {
        flagged = true;
        if (core.overflowed(p)) rep.fail("core: checker overflow on history " + std::to_string(i));
        break;
      }
    }
    if (flagged == hs[i].linearizable) {
      rep.fail("core: history " + std::to_string(i) + " was " +
               (flagged ? "flagged" : "not flagged") + " against planted " +
               (hs[i].linearizable ? "ok" : "rejected"));
    }
    cs.events_fed += core.stats().events_fed;
  }
  cs.wall_ns = now_ns() - start;
  core_metrics(cs, tr, snapshot_of(selin::obs::snapshot_json(reg), rep), rep);
}

}  // namespace perfbench
