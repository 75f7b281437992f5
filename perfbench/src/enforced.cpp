// enforced_queue_8slots: one thread applies fixed, seeded sequences
// of queue operations through the self-enforced path of Figure 11 over a
// correct MS queue with 8 process slots, and every operation is verified.
#include <unistd.h>

#include <algorithm>
#include <limits>

#include "layers.hpp"
#include "selin/core/astar.hpp"
#include "selin/core/monitor_core.hpp"
#include "selin/impls/concurrent.hpp"
#include "selin/lincheck/monitor.hpp"
#include "selin/obs/export.hpp"
#include "selin/obs/hooks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The fastest repeat of one sequence: interference from outside the run
/// only ever slows an episode down, so the fastest of a sequence's repeats
/// is the steadiest estimate of what the path costs.
struct Best {
  int64_t ns = std::numeric_limits<int64_t>::max();
  std::vector<double> apply_us;  ///< per-op latencies of that repeat
};

struct EpisodeTotals {
  Samples setup_s;
  std::vector<Best> best;  ///< per sequence
  long rotation_rss_kb = 0;
  CoreSamples core;  ///< per-stage samples (traced episodes)

  double ops_per_s() const {
    double ops = 0, ns = 0;
    for (const Best& b : best) {
      ops += static_cast<double>(b.apply_us.size());
      ns += static_cast<double>(b.ns);
    }
    return ops * 1e9 / ns;
  }
  Samples apply_us() const {
    Samples s;
    for (const Best& b : best) {
      for (const double v : b.apply_us) s.add(v);
    }
    return s;
  }
};

/// One episode: builds the implementation, A* and MonitorCore (the set-up
/// time), then runs every op as AStar::apply -> MonitorCore::publish ->
/// MonitorCore::check, which is exactly SelfEnforced::apply.
void episode(const std::vector<EnforcedOp>& ops, uint64_t episode_id,
             const selin::obs::LeveledHooks* hooks, Tracer& tr, Best& best,
             EpisodeTotals& t, Report& rep) {
  const int64_t t0 = now_ns();
  const auto impl = selin::make_ms_queue();
  const auto obj = selin::make_linearizable_object(selin::make_queue_spec());
  selin::AStar astar(kEnforcedSlots, *impl);
  selin::MonitorCore::Options opts;
  opts.obs = hooks;
  selin::MonitorCore core(kEnforcedSlots, kEnforcedSlots, *obj, opts);
  const int64_t t1 = now_ns();
  t.setup_s.add(static_cast<double>(t1 - t0) / 1e9);

  std::vector<double> apply_us;
  apply_us.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const EnforcedOp& op = ops[i];
    const uint64_t id = episode_id * ops.size() + i;
    Scope whole(tr, "op", id);
    const int64_t a = now_ns();
    selin::AStar::Result r;
    {
      Scope span(tr, "core.astar_apply", id, whole.handle());
      r = astar.apply(op.pid, op.method, op.arg);
    }
    const int64_t b = now_ns();
    const selin::Value y = r.y;
    {
      Scope span(tr, "core.publish", id, whole.handle());
      core.publish(op.pid, r.op, r.y, std::move(r.view));
    }
    const int64_t c = now_ns();
    bool ok;
    {
      Scope span(tr, "core.check", id, whole.handle());
      ok = core.check(op.pid);
    }
    const int64_t d = now_ns();
    apply_us.push_back(static_cast<double>(d - a) / 1e3);
    if (tr.on()) {
      t.core.astar_us.add(static_cast<double>(b - a) / 1e3);
      t.core.publish_us.add(static_cast<double>(c - b) / 1e3);
      t.core.check_us.add(static_cast<double>(d - c) / 1e3);
    }
    if (!ok || y != op.expect) {
      rep.fail("op " + std::to_string(i) + ": " +
               (ok ? "answered " + std::to_string(y) + ", expected " +
                         std::to_string(op.expect)
                   : std::string(core.overflowed(op.pid) ? "overflow"
                                                         : "ERROR")));
    }
  }
  const int64_t t2 = now_ns();
  rep.attempted += ops.size();
  if (t2 - t1 < best.ns) {
    best.ns = t2 - t1;
    best.apply_us = std::move(apply_us);
  }
  if (tr.on()) {
    t.core.ops += ops.size();
    t.core.events_fed += core.stats().events_fed;
    t.core.wall_ns += t2 - t1;
  }
}

/// A correct queue whose answer to its `bad`-th apply is off by one: a
/// planted violation, since a single calling thread makes every op width 1,
/// where the legal response is unique.
class CorruptOne final : public selin::IConcurrent {
 public:
  CorruptOne(selin::IConcurrent& inner, size_t bad) : inner_(inner), bad_(bad) {}
  const char* name() const override { return "corrupt-one"; }
  selin::Value apply(selin::ProcId p, const selin::OpDesc& op) override {
    const selin::Value y = inner_.apply(p, op);
    return n_++ == bad_ ? y + 1 : y;
  }

 private:
  selin::IConcurrent& inner_;
  size_t bad_;
  size_t n_ = 0;
};

/// Untimed probe that the path still rejects: the sequence over a queue
/// that answers its last op wrongly must pass every check but the last.
void check_planted_violation(const std::vector<EnforcedOp>& ops,
                             Report& rep) {
  const auto queue = selin::make_ms_queue();
  CorruptOne impl(*queue, ops.size() - 1);
  const auto obj = selin::make_linearizable_object(selin::make_queue_spec());
  selin::AStar astar(kEnforcedSlots, impl);
  selin::MonitorCore core(kEnforcedSlots, kEnforcedSlots, *obj,
                          selin::MonitorCore::Options{});
  ++rep.attempted;
  for (size_t i = 0; i < ops.size(); ++i) {
    const EnforcedOp& op = ops[i];
    selin::AStar::Result r = astar.apply(op.pid, op.method, op.arg);
    core.publish(op.pid, r.op, r.y, std::move(r.view));
    if (core.check(op.pid) != (i + 1 < ops.size())) {
      rep.fail("planted violation: check at op " + std::to_string(i) +
               " of " + std::to_string(ops.size()) + " disagrees");
      return;
    }
  }
}

/// Episodes until `seconds` have passed (at least one per sequence), each
/// running the next sequence in rotation.
EpisodeTotals run_episodes(const std::vector<std::vector<EnforcedOp>>& seqs,
                           double seconds,
                           const selin::obs::LeveledHooks* hooks, Tracer& tr,
                           Report& rep) {
  EpisodeTotals t;
  t.best.resize(seqs.size());
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t e = 0; e < seqs.size() || now_ns() < deadline; ++e) {
    const size_t s = e % seqs.size();
    episode(seqs[s], e, hooks, tr, t.best[s], t, rep);
    // Peak memory of one rotation: the same work on every run, however many
    // episodes the run's length allows.
    if (e + 1 == seqs.size()) t.rotation_rss_kb = vm_hwm_kb(::getpid());
  }
  return t;
}

}  // namespace

Report run_enforced(const Config& cfg, Tracer& tr) {
  Report rep;
  const auto seqs = make_enforced_sequences(cfg.seed);
  // One thread: keep it on one CPU, so the scheduler never migrates it
  // mid-episode onto cold caches.
  pin_thread(last_cpu());
  check_planted_violation(seqs.front(), rep);
  if (!cfg.trace) {
    const EpisodeTotals t = run_episodes(seqs, cfg.seconds, nullptr, tr, rep);
    const Samples apply_us = t.apply_us();
    rep.set("setup_s", t.setup_s.median(), "s", t.setup_s.size());
    rep.set("events_per_s", 2 * t.ops_per_s(), "1/s", apply_us.size());
    rep.set("ops_per_s", t.ops_per_s(), "1/s", apply_us.size());
    rep.set("apply_p50_us", apply_us.quantile(0.5), "us", apply_us.size());
    rep.set("apply_p99_us", apply_us.quantile(0.99), "us", apply_us.size());
    rep.set("verdict_p50_ms", apply_us.quantile(0.5) / 1e3, "ms",
            apply_us.size());
    rep.set("peak_rss_mb", static_cast<double>(t.rotation_rss_kb) / 1024.0,
            "MB");
    return rep;
  }

  // Traced: half the time plain, half with spans and the leveled-checker
  // hooks attached; the throughput ratio is the tracing cost.
  Tracer off(false);
  const EpisodeTotals plain =
      run_episodes(seqs, cfg.seconds / 2, nullptr, off, rep);
  selin::obs::MetricsRegistry reg;
  const selin::obs::LeveledHooks hooks = selin::obs::make_leveled_hooks(reg);
  const EpisodeTotals traced =
      run_episodes(seqs, cfg.seconds / 2, &hooks, tr, rep);
  rep.set("trace_overhead_frac", plain.ops_per_s() / traced.ops_per_s() - 1,
          "frac");
  const Samples plain_us = plain.apply_us();
  rep.set("verdict_p99_ms", plain_us.quantile(0.99) / 1e3, "ms",
          plain_us.size());
  core_metrics(traced.core, tr,
               snapshot_of(selin::obs::snapshot_json(reg), rep), rep);

  // Layers the enforced path bypasses, replayed on the histories it verified.
  std::vector<Planted> histories;
  for (const auto& ops : seqs) {
    histories.push_back(
        Planted{selin::ObjectKind::kQueue, enforced_history(ops), true});
  }
  measure_wire(histories, tr, rep);
  measure_io(histories, tr, rep);
  measure_engine(histories, true, tr, rep);
  const ServiceRun svc = run_service(histories, 2, true, tr, rep);
  service_timings(svc, rep);
  service_instruments(snapshot_of(svc.metrics_json, rep), rep);
  service_speedup(histories, tr, rep);
  measure_net_replay(cfg, histories, tr, rep);
  return rep;
}

}  // namespace perfbench
