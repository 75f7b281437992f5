// Tests of the benchmark's input generators: determinism, agreement of the
// planted verdicts with the brute-force oracle on small instances, and the
// offline corpus staying inside the checker's default exploration budget
// (so the offline workload never silently measures overflow exits).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "../src/gen.hpp"
#include "selin/impls/concurrent.hpp"
#include "selin/lincheck/checker.hpp"

namespace perfbench {
namespace {

std::string text_of(const std::vector<Planted>& hs) {
  std::string out;
  for (const Planted& p : hs) {
    out += std::to_string(static_cast<int>(p.kind)) +
           (p.linearizable ? " ok\n" : " bad\n") + to_text(p.events);
  }
  return out;
}

TEST(GenTest, SameSeedSameBytes) {
  EXPECT_EQ(text_of(make_ingest_pool(7, 20, 256)),
            text_of(make_ingest_pool(7, 20, 256)));
  EXPECT_EQ(text_of(make_register_corpus(7, 16, 200)),
            text_of(make_register_corpus(7, 16, 200)));
  EXPECT_EQ(to_text(enforced_history(make_enforced_ops(7, 500))),
            to_text(enforced_history(make_enforced_ops(7, 500))));
  const auto a = make_enforced_sequences(7), b = make_enforced_sequences(7);
  ASSERT_EQ(a.size(), kEnforcedSequences);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_text(enforced_history(a[i])), to_text(enforced_history(b[i])));
  }

  EXPECT_NE(text_of(make_ingest_pool(7, 20, 256)),
            text_of(make_ingest_pool(8, 20, 256)));
  EXPECT_NE(text_of(make_register_corpus(7, 16, 200)),
            text_of(make_register_corpus(8, 16, 200)));
  EXPECT_NE(to_text(enforced_history(make_enforced_ops(7, 500))),
            to_text(enforced_history(make_enforced_ops(8, 500))));
}

TEST(GenTest, PlantedVerdictsFollowTheirSchedule) {
  const auto pool = make_ingest_pool(3, kIngestPool, kIngestSessionEvents);
  ASSERT_EQ(pool.size(), kIngestPool);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool[i].linearizable, i % 10 != 9) << i;
    EXPECT_EQ(pool[i].events.size(), kIngestSessionEvents) << i;
  }
  const auto corpus = make_register_corpus(3, 16, 100);
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corpus[i].linearizable, i % 8 != 7) << i;
    EXPECT_EQ(corpus[i].events.size(), 200u) << i;
    EXPECT_TRUE(selin::well_formed(corpus[i].events)) << i;
  }
}

// The oracle is exhaustive, so instances stay at <= 8 operations.
TEST(GenTest, IngestStreamsAgreeWithBruteForce) {
  for (const ObjectKind kind : ingest_kinds()) {
    const auto spec = selin::make_spec(kind);
    for (uint64_t seed = 0; seed < 40; ++seed) {
      for (const bool reject : {false, true}) {
        const Planted p = make_ingest_stream(kind, 16, seed, reject);
        ASSERT_TRUE(selin::well_formed(p.events));
        EXPECT_EQ(selin::linearizable_bruteforce(*spec, p.events),
                  p.linearizable)
            << selin::object_kind_name(kind) << " seed " << seed;
      }
    }
  }
}

TEST(GenTest, RegisterHistoriesAgreeWithBruteForce) {
  const auto spec = selin::make_spec(ObjectKind::kRegister);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    for (const bool plant : {false, true}) {
      const Planted p = make_register_history(seed, 8, plant);
      ASSERT_TRUE(selin::well_formed(p.events));
      EXPECT_EQ(selin::linearizable_bruteforce(*spec, p.events),
                p.linearizable)
          << "seed " << seed << "\n"
          << to_text(p.events);
    }
  }
}

TEST(GenTest, RegisterHistoriesReachWidthFour) {
  const Planted p = make_register_history(11, 2000, false);
  size_t open = 0, widest = 0;
  for (const Event& e : p.events) {
    open = e.is_inv() ? open + 1 : open - 1;
    widest = std::max(widest, open);
  }
  EXPECT_EQ(widest, kRegisterProcs);
}

TEST(GenTest, EnforcedExpectationsMatchOracleAndQueue) {
  const auto spec = selin::make_spec(ObjectKind::kQueue);
  for (uint64_t seed = 0; seed < 40; ++seed) {
    EXPECT_TRUE(selin::linearizable_bruteforce(
        *spec, enforced_history(make_enforced_ops(seed, 8))));
  }
  // Applied one at a time, a correct queue answers exactly the expectations.
  const auto ops = make_enforced_ops(5, kEnforcedOps);
  const auto queue = selin::make_ms_queue();
  std::array<uint32_t, kEnforcedSlots> seq{};
  for (const EnforcedOp& op : ops) {
    ASSERT_LT(op.pid, kEnforcedSlots);
    const selin::OpDesc d{selin::OpId{op.pid, seq[op.pid]++}, op.method,
                          op.arg};
    EXPECT_EQ(queue->apply(op.pid, d), op.expect);
  }
}

// The offline workload at its real size: every history is decided inside
// the default 2^18-configuration budget, with the planted verdict.
TEST(GenTest, OfflineCorpusStaysInsideTheBudget) {
  const auto spec = selin::make_spec(ObjectKind::kRegister);
  for (const uint64_t seed : {1u, 2u}) {
    const auto corpus =
        make_register_corpus(seed, kOfflineHistories, kOfflineOps);
    for (size_t i = 0; i < corpus.size(); ++i) {
      selin::LinMonitor m(*spec);  // default budget: 1 << 18
      ASSERT_NO_THROW(m.feed_batch(corpus[i].events)) << "history " << i;
      EXPECT_EQ(m.ok(), corpus[i].linearizable) << "history " << i;
      EXPECT_LT(m.stats().peak_frontier, size_t{1} << 12) << "history " << i;
    }
  }
}

// Likewise for the ingest sessions, whose verdicts the daemon settles with
// the same budget.
TEST(GenTest, IngestPoolStaysInsideTheBudget) {
  for (const Planted& p :
       make_ingest_pool(1, kIngestPool, kIngestSessionEvents)) {
    const auto spec = selin::make_spec(p.kind);
    selin::LinMonitor m(*spec);
    ASSERT_NO_THROW(m.feed_batch(p.events));
    EXPECT_EQ(m.ok(), p.linearizable);
  }
}

}  // namespace
}  // namespace perfbench
