// Per-layer measurements.  Each function drives one layer through its
// public functions on a workload's own generated histories, timing the calls
// from outside (spans recorded in the tracer) and checking every verdict the
// layer returns against the generator's planted one.  A workload whose live
// path crosses a layer measures it there instead; these replays cover the
// layers the live path bypasses, so every per-layer metric exists on every
// workload (see perfbench/NOTES.md for which is which).
#pragma once

#include <string>
#include <vector>

#include "gen.hpp"
#include "measure.hpp"

namespace perfbench {

/// Events per kEvents frame everywhere in the benchmark.
inline constexpr size_t kFrameEvents = 256;

/// Parses an obs::snapshot_json document; a malformed one counts as a
/// failure of the run.
SnapshotData snapshot_of(const std::string& doc, Report& rep);

/// The first histories of `all` holding at most `max_events` events in
/// total (at least one history).
std::vector<Planted> take_events(const std::vector<Planted>& all,
                                 size_t max_events);

/// net: peek_frame + decode_events over the histories packed as kEvents
/// frames -> net.wire_decode_ns_per_event.
void measure_wire(const std::vector<Planted>& hs, Tracer& tr, Report& rep);

/// io: HistoryStreamReader::read_batch over the histories' text form ->
/// io.read_batch_ns_per_event.
void measure_io(const std::vector<Planted>& hs, Tracer& tr, Report& rep);

/// engine: one LinMonitor per history fed in frame-sized feed_batch calls
/// -> engine.feed_batch_ns_per_event; with `instruments`, a second pass with
/// the engine hooks attached gives engine.dedup_hit_rate,
/// engine.peak_frontier and engine.round_p99_us.
void measure_engine(const std::vector<Planted>& hs, bool instruments,
                    Tracer& tr, Report& rep);

/// The engine.* instrument metrics from a snapshot document.
void engine_instruments(const SnapshotData& snap, Report& rep);

/// service: every history as a MonitorService session (`lanes` executor
/// lanes, the daemon's batch limit and inbox bound), frames published with
/// Session::try_publish and absorbed by drain_round.  Verdicts are checked
/// against the planted ones.
struct ServiceRun {
  int64_t publish_ns = 0;  ///< inside try_publish
  int64_t drain_ns = 0;    ///< inside drain_round
  int64_t wall_ns = 0;     ///< publish + drain loop
  uint64_t events = 0;
  std::string metrics_json;  ///< the service's snapshot (observed runs)
};
ServiceRun run_service(const std::vector<Planted>& hs, size_t lanes,
                       bool observe, Tracer& tr, Report& rep);

/// service.try_publish_ns_per_event / service.drain_round_ns_per_event.
void service_timings(const ServiceRun& run, Report& rep);

/// parallel.speedup_vs_1job: service wall time at 1 lane / at 4 lanes.
void service_speedup(const std::vector<Planted>& hs, Tracer& tr, Report& rep);

/// service.events_per_drain_round, service.session_lag_p99 and
/// parallel.exec_phase_p99_us from a snapshot document.
void service_instruments(const SnapshotData& snap, Report& rep);

/// Per-op samples of the enforced path, split by the paper's stages.
struct CoreSamples {
  Samples astar_us, publish_us, check_us;
  uint64_t ops = 0;
  uint64_t events_fed = 0;  ///< MonitorCore::stats().events_fed, summed
  int64_t wall_ns = 0;      ///< wall time of the op loops
};

/// core.* / views.* / engine.level_feeds_per_op from the samples, the
/// tracer's self times, and the leveled-checker instruments in `snap`.
void core_metrics(const CoreSamples& cs, const Tracer& tr,
                  const SnapshotData& snap, Report& rep);

/// core + views: every history re-run through A* (announce at its
/// invocation, complete at its response, over a replayed implementation)
/// and MonitorCore publish/check — the path `selin_check --enforced` takes.
void measure_core_replay(const std::vector<Planted>& hs, Tracer& tr,
                         Report& rep);

}  // namespace perfbench
