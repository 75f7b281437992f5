// Seeded input generators of the benchmark, one per workload.  Every
// generator is a pure function of its arguments (SplitMix64 via selin::Rng),
// so one seed always yields byte-identical inputs, and every input carries
// the verdict the generator planted in it.  The programs under test receive
// only the generated events; the planted verdicts stay here and are compared
// with what the programs answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "selin/history/history.hpp"
#include "selin/sim/workload.hpp"

namespace perfbench {

using selin::Event;
using selin::History;
using selin::ObjectKind;

/// One generated history with its planted verdict.
struct Planted {
  ObjectKind kind = ObjectKind::kQueue;
  History events;
  bool linearizable = true;
};

// ---- ingest_uds -----------------------------------------------------------

/// Object kinds the ingest sessions rotate through (mixed kinds, so every
/// spec's closure path is on the daemon's drain path).
const std::vector<ObjectKind>& ingest_kinds();

/// The soak shape: width-2 mutator∥consumer pairs (the consumer partner is
/// resolved by its own response, so the frontier stays O(1)), responses
/// computed through the kind's sequential spec.  With `reject_tail` the last
/// operation runs alone (width 1, where the spec's response is unique) and
/// answers a wrong value, so the history is certainly not linearizable.
/// `events` is rounded down to an even count.
Planted make_ingest_stream(ObjectKind kind, size_t events, uint64_t seed,
                           bool reject_tail);

/// The ingest workload's pool: 60 streams of 2048 events (8 frames each).
inline constexpr size_t kIngestPool = 60;
inline constexpr size_t kIngestSessionEvents = 2048;

/// The session pool of one ingest run: `count` streams (count a multiple of
/// 10), kinds rotating through ingest_kinds(), every 10th stream
/// (index % 10 == 9) with a rejecting tail.  Sessions cycle through the pool in order, so
/// every 10th session rejects however long the run is.
std::vector<Planted> make_ingest_pool(uint64_t seed, size_t count,
                                      size_t events);

// ---- offline_register_w4 --------------------------------------------------

/// Register histories with 4 processes, each with at most one open
/// operation (so at most 4 are open at once).  The generator simulates a
/// linearizable execution: every operation takes effect on the register at
/// a random point between its invocation and its response.  With
/// `plant_bad`, one read in the last quarter answers a value no write ever
/// wrote, so the history is certainly not linearizable.
Planted make_register_history(uint64_t seed, size_t ops, bool plant_bad);

/// Processes of every register history.
inline constexpr size_t kRegisterProcs = 4;
/// Distinct values writes draw from; reads of anything else are planted.
inline constexpr int64_t kRegisterValues = 64;

/// The offline workload's corpus size (its tests pin that this corpus stays
/// inside the checker's default exploration budget).
inline constexpr size_t kOfflineHistories = 64;
inline constexpr size_t kOfflineOps = 4096;  // per history: 8192 events

/// `count` histories; history i carries the planted bad read iff
/// i % 8 == 7 (1 history in 8).
std::vector<Planted> make_register_corpus(uint64_t seed, size_t count,
                                          size_t ops);

// ---- enforced_queue_8slots ------------------------------------------------

/// One operation of the enforced workload and the response the sequential
/// queue specification gives it (the ops run on a single thread, so a correct
/// queue must answer exactly this).
struct EnforcedOp {
  selin::ProcId pid = 0;
  selin::Method method = selin::Method::kDequeue;
  selin::Value arg = selin::kNoArg;
  selin::Value expect = selin::kNoArg;
};

inline constexpr size_t kEnforcedSlots = 8;
/// Operations per enforced episode.  The count is fixed, not the duration,
/// because the per-op check cost grows with the history: every episode
/// starts from a fresh object and runs one of kEnforcedSequences seeded
/// sequences, in rotation, so a run averages over the same sequences
/// whatever its length.
inline constexpr size_t kEnforcedOps = 2048;
inline constexpr size_t kEnforcedSequences = 16;

/// `count` random queue operations over kEnforcedSlots process slots.
std::vector<EnforcedOp> make_enforced_ops(uint64_t seed, size_t count);

/// kEnforcedSequences sequences of kEnforcedOps operations.
std::vector<std::vector<EnforcedOp>> make_enforced_sequences(uint64_t seed);

/// The sequential history the enforced run produces when every response
/// matches (inv, res per operation, per-slot sequence numbers from 0).
History enforced_history(const std::vector<EnforcedOp>& ops);

// ---- shared ---------------------------------------------------------------

/// Canonical text of a history (the selin_check input format).
std::string to_text(const History& h);

}  // namespace perfbench
