// The wait-free predictive verifier V_O (Figure 10) — Theorem 8.1 exercised
// operationally:
//   * Soundness for correct A: multithreaded runs over correct lock-free
//     implementations never report (sweep over object families × snapshots).
//   * Completeness: faulty implementations are eventually reported, with a
//     witness that is genuinely outside the object.
//   * Stability: after the first report, reports keep coming.
//   * Efficiency: read/write base objects only (by construction) with step
//     counts independent of history length.
#include <gtest/gtest.h>

#include <thread>

#include "test_util.hpp"

namespace selin {
namespace {

struct SoundParams {
  ObjectKind kind;
  SnapshotKind snap;
};

class VerifierSoundness : public ::testing::TestWithParam<SoundParams> {};

/// One soundness sweep: kProcs threads run 120 random ops each on a
/// correct implementation under the verifier.  Returns the error count;
/// `sketch` receives process 0's sketch for the failure message.
size_t soundness_sweep(ObjectKind kind, SnapshotKind snap, uint64_t seed,
                       History& sketch) {
  constexpr size_t kProcs = 3;
  auto impl = make_correct_impl(kind);
  auto obj = make_linearizable_object(make_spec(kind));
  AStar astar(kProcs, *impl, snap);
  Verifier v(astar, *obj);

  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 131 + 7 + seed);
      barrier.arrive_and_wait();
      for (int i = 0; i < 120; ++i) {
        auto [m, arg] = random_op(kind, rng);
        v.step(p, m, arg);
      }
    });
  }
  for (auto& t : threads) t.join();
  sketch = v.sketch(0);
  return v.error_count();
}

TEST_P(VerifierSoundness, CorrectImplementationNeverReported) {
  auto [kind, snap] = GetParam();
  History sketch;
  EXPECT_EQ(soundness_sweep(kind, snap, 0, sketch), 0u)
      << object_kind_name(kind) << "/" << snapshot_kind_name(snap) << ":\n"
      << format_history(sketch);
}

// The register sweep is where a reordering between A's steps and N's
// write/scan showed first: a correct register was reported after
// Write(4) -> Write(20) -> Read 4, because a store held in a store buffer
// past a later load let the Read miss a Write its view ordered first.  The
// window is a few nanoseconds, so one sweep rarely hits it; repeat the
// sweep with fresh op seeds.
TEST(VerifierSoundnessRegister, RepeatedSweepsNeverReport) {
  for (uint64_t rep = 0; rep < 40; ++rep) {
    for (SnapshotKind snap : {SnapshotKind::kDoubleCollect,
                              SnapshotKind::kAfek}) {
      History sketch;
      ASSERT_EQ(soundness_sweep(ObjectKind::kRegister, snap, rep * 1009,
                                sketch),
                0u)
          << "rep " << rep << " " << snapshot_kind_name(snap) << ":\n"
          << format_history(sketch);
    }
  }
}

std::vector<SoundParams> soundness_params() {
  std::vector<SoundParams> v;
  for (ObjectKind kind :
       {ObjectKind::kQueue, ObjectKind::kStack, ObjectKind::kSet,
        ObjectKind::kPqueue, ObjectKind::kCounter, ObjectKind::kRegister,
        ObjectKind::kConsensus}) {
    v.push_back({kind, SnapshotKind::kDoubleCollect});
    v.push_back({kind, SnapshotKind::kAfek});
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, VerifierSoundness,
                         ::testing::ValuesIn(soundness_params()));

// ---- Completeness ----------------------------------------------------------

struct FaultyCase {
  const char* label;
  std::function<std::unique_ptr<IConcurrent>()> make;
  ObjectKind kind;
};

class VerifierCompleteness : public ::testing::TestWithParam<FaultyCase> {};

TEST_P(VerifierCompleteness, FaultEventuallyReportedWithValidWitness) {
  const FaultyCase& fc = GetParam();
  constexpr size_t kProcs = 3;
  auto impl = fc.make();
  auto obj = make_linearizable_object(make_spec(fc.kind));
  AStar astar(kProcs, *impl);

  std::atomic<size_t> reports{0};
  std::mutex wmu;
  History first_witness;
  Verifier v(astar, *obj, [&](ProcId, const History& w) {
    if (reports.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(wmu);
      first_witness = w;
    }
  });

  SpinBarrier barrier(kProcs);
  std::vector<std::thread> threads;
  for (ProcId p = 0; p < kProcs; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(p * 17 + 3);
      barrier.arrive_and_wait();
      for (int i = 0; i < 400 && reports.load() < 4; ++i) {
        auto [m, arg] = random_op(fc.kind, rng);
        v.step(p, m, arg);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(reports.load(), 0u) << fc.label;
  // Predictive soundness: the report carries a witness that is genuinely
  // outside the object.
  std::lock_guard<std::mutex> lock(wmu);
  ASSERT_TRUE(well_formed(first_witness));
  EXPECT_FALSE(obj->contains(first_witness)) << format_history(first_witness);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, VerifierCompleteness,
    ::testing::Values(
        FaultyCase{"thm51", [] { return make_thm51_queue(1); },
                   ObjectKind::kQueue},
        FaultyCase{"lossy", [] { return make_lossy_queue(1, 4, 42); },
                   ObjectKind::kQueue},
        FaultyCase{"dup", [] { return make_dup_queue(1, 4, 43); },
                   ObjectKind::kQueue},
        FaultyCase{"stale_counter", [] { return make_stale_counter(1, 3, 44); },
                   ObjectKind::kCounter},
        FaultyCase{"stale_register",
                   [] { return make_stale_register(1, 3, 45); },
                   ObjectKind::kRegister}),
    [](const auto& info) { return std::string(info.param.label); });

// ---- Stability (Theorem 8.1(3)) --------------------------------------------

TEST(VerifierStability, ErrorPersistsAcrossIterations) {
  // Single-threaded: the Theorem 5.1 queue lies on the very first dequeue;
  // every subsequent iteration must keep reporting.
  auto impl = make_thm51_queue(0);
  auto obj = make_linearizable_object(make_queue_spec());
  AStar astar(2, *impl);
  Verifier v(astar, *obj);
  v.step(0, Method::kDequeue);  // the lie: deq -> 1
  ASSERT_EQ(v.error_count(), 1u);
  for (int i = 0; i < 10; ++i) {
    v.step(0, Method::kDequeue);
    v.step(1, Method::kEnqueue, 100 + i);
  }
  // Every one of the 21 iterations reported.
  EXPECT_EQ(v.error_count(), 21u);
}

// ---- Efficiency (Claim 8.1 shape) ------------------------------------------

TEST(VerifierEfficiency, MonitorStepsIndependentOfHistoryLength) {
  auto impl = make_atomic_counter();
  auto obj = make_linearizable_object(make_counter_spec());
  AStar astar(4, *impl, SnapshotKind::kAfek);
  Verifier v(astar, *obj, {}, SnapshotKind::kAfek);
  StepCounter::set_enabled(true);
  StepCounter::reset_local();
  uint64_t early = 0, late = 0;
  for (int i = 0; i < 60; ++i) {
    StepProbe probe;
    v.step(0, Method::kInc);
    if (i < 10) early += probe.steps();
    if (i >= 50) late += probe.steps();
  }
  // Shared-memory steps per iteration are flat: the chains grow, but each
  // iteration touches only head pointers (plus O(n^2) snapshot steps).
  EXPECT_LE(late, early * 3 + 64);
}

}  // namespace
}  // namespace selin
