#include "gen.hpp"

#include <array>

#include "selin/io/history_io.hpp"
#include "selin/util/rng.hpp"

namespace perfbench {

using selin::Method;
using selin::OpDesc;
using selin::OpId;
using selin::ProcId;
using selin::Rng;
using selin::Value;

const std::vector<ObjectKind>& ingest_kinds() {
  static const std::vector<ObjectKind> kinds = {
      ObjectKind::kQueue,   ObjectKind::kStack,   ObjectKind::kSet,
      ObjectKind::kPqueue,  ObjectKind::kCounter, ObjectKind::kRegister};
  return kinds;
}

namespace {

/// The width-2 partner of a mutator: the kind's consuming or observing
/// method, whose own response resolves the pair's order.
std::pair<Method, Value> partner_op(ObjectKind kind) {
  switch (kind) {
    case ObjectKind::kQueue: return {Method::kDequeue, selin::kNoArg};
    case ObjectKind::kStack: return {Method::kPop, selin::kNoArg};
    case ObjectKind::kSet: return {Method::kContains, 3};
    case ObjectKind::kPqueue: return {Method::kPqExtractMin, selin::kNoArg};
    case ObjectKind::kCounter: return {Method::kCounterRead, selin::kNoArg};
    case ObjectKind::kRegister: return {Method::kRead, selin::kNoArg};
    case ObjectKind::kConsensus: return {Method::kDecide, 1};
  }
  return {Method::kRead, selin::kNoArg};
}

}  // namespace

Planted make_ingest_stream(ObjectKind kind, size_t events, uint64_t seed,
                           bool reject_tail) {
  Planted out;
  out.kind = kind;
  out.linearizable = !reject_tail;
  events &= ~size_t{1};
  out.events.reserve(events);
  Rng rng(seed);
  auto state = selin::make_spec(kind)->initial();
  std::array<uint32_t, 2> seq{0, 0};
  const auto op_for = [&](ProcId pid, Method m, Value arg) {
    return OpDesc{OpId{pid, seq[pid]++}, m, arg};
  };
  const size_t tail = reject_tail ? 2 : 0;
  while (out.events.size() + 4 + tail <= events) {
    const auto [am, aarg] = selin::random_op(kind, rng);
    const OpDesc a = op_for(0, am, aarg);
    const auto [bm, barg] = partner_op(kind);
    const OpDesc b = op_for(1, bm, barg);
    const Value ra = state->step(a.method, a.arg);
    const Value rb = state->step(b.method, b.arg);
    out.events.push_back(Event::inv(a));
    out.events.push_back(Event::inv(b));
    out.events.push_back(Event::res(a, ra));
    out.events.push_back(Event::res(b, rb));
  }
  while (out.events.size() + 2 + tail <= events) {  // width-1 top-up
    const auto [m, arg] = selin::random_op(kind, rng);
    const OpDesc a = op_for(0, m, arg);
    out.events.push_back(Event::inv(a));
    out.events.push_back(Event::res(a, state->step(a.method, a.arg)));
  }
  if (reject_tail) {
    const auto [m, arg] = selin::random_op(kind, rng);
    const OpDesc a = op_for(0, m, arg);
    out.events.push_back(Event::inv(a));
    // != the unique legal response of a width-1 operation.
    out.events.push_back(Event::res(a, state->step(a.method, a.arg) + 1));
  }
  return out;
}

std::vector<Planted> make_ingest_pool(uint64_t seed, size_t count,
                                      size_t events) {
  std::vector<Planted> pool;
  pool.reserve(count);
  Rng pick(seed);
  const auto& kinds = ingest_kinds();
  for (size_t i = 0; i < count; ++i) {
    // Kinds rotate, so every seed streams the same mix of kinds.
    const ObjectKind kind = kinds[i % kinds.size()];
    pool.push_back(make_ingest_stream(kind, events, pick.next(), i % 10 == 9));
  }
  return pool;
}

Planted make_register_history(uint64_t seed, size_t ops, bool plant_bad) {
  Planted out;
  out.kind = ObjectKind::kRegister;
  out.linearizable = !plant_bad;
  out.events.reserve(2 * ops);
  Rng rng(seed);
  struct Proc {
    bool open = false;
    bool applied = false;  // took effect on the register; response known
    bool planted = false;  // the read that answers a never-written value
    OpDesc op;
    Value result = selin::kNoArg;
    uint32_t seq = 0;
  };
  std::array<Proc, kRegisterProcs> procs{};
  Value reg = 0;  // make_register_spec's initial value
  const size_t bad_at =
      plant_bad ? ops - 1 - rng.below(ops - ops * 3 / 4) : ops;
  size_t started = 0;
  size_t open = 0;
  while (started < ops || open > 0) {
    Proc& p = procs[rng.below(kRegisterProcs)];
    const auto pid = static_cast<ProcId>(&p - procs.data());
    if (!p.open) {
      if (started == ops) continue;
      const bool write = started != bad_at && rng.chance(1, 2);
      p.op = write ? OpDesc{OpId{pid, p.seq++}, Method::kWrite,
                            rng.range(1, kRegisterValues)}
                   : OpDesc{OpId{pid, p.seq++}, Method::kRead, selin::kNoArg};
      p.open = true;
      p.applied = false;
      p.planted = started == bad_at;
      out.events.push_back(Event::inv(p.op));
      ++started;
      ++open;
    } else if (!p.applied) {
      if (p.op.method == Method::kWrite) {
        reg = p.op.arg;
        p.result = selin::kOk;
      } else if (p.planted) {
        // A value outside every write's range and not the initial value.
        p.result = kRegisterValues + 1 + rng.range(0, 999);
      } else {
        p.result = reg;
      }
      p.applied = true;
    } else {
      out.events.push_back(Event::res(p.op, p.result));
      p.open = false;
      --open;
    }
  }
  return out;
}

std::vector<Planted> make_register_corpus(uint64_t seed, size_t count,
                                          size_t ops) {
  std::vector<Planted> corpus;
  corpus.reserve(count);
  Rng pick(seed);
  for (size_t i = 0; i < count; ++i) {
    corpus.push_back(make_register_history(pick.next(), ops, i % 8 == 7));
  }
  return corpus;
}

std::vector<EnforcedOp> make_enforced_ops(uint64_t seed, size_t count) {
  std::vector<EnforcedOp> ops;
  ops.reserve(count);
  Rng rng(seed);
  auto state = selin::make_spec(ObjectKind::kQueue)->initial();
  for (size_t i = 0; i < count; ++i) {
    EnforcedOp op;
    op.pid = static_cast<ProcId>(rng.below(kEnforcedSlots));
    std::tie(op.method, op.arg) = selin::random_op(ObjectKind::kQueue, rng);
    op.expect = state->step(op.method, op.arg);
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::vector<EnforcedOp>> make_enforced_sequences(uint64_t seed) {
  std::vector<std::vector<EnforcedOp>> seqs;
  Rng pick(seed);
  for (size_t i = 0; i < kEnforcedSequences; ++i) {
    seqs.push_back(make_enforced_ops(pick.next(), kEnforcedOps));
  }
  return seqs;
}

History enforced_history(const std::vector<EnforcedOp>& ops) {
  History h;
  h.reserve(2 * ops.size());
  std::array<uint32_t, kEnforcedSlots> seq{};
  for (const EnforcedOp& op : ops) {
    const OpDesc d{OpId{op.pid, seq[op.pid]++}, op.method, op.arg};
    h.push_back(Event::inv(d));
    h.push_back(Event::res(d, op.expect));
  }
  return h;
}

std::string to_text(const History& h) { return selin::history_to_string(h); }

}  // namespace perfbench
