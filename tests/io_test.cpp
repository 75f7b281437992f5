// History text format: parsing, serialization, round-trips, error reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "selin/io/history_io.hpp"
#include "test_util.hpp"

namespace selin {
namespace {

TEST(HistoryIo, ParsesBasicHistory) {
  History h = parse_history_string(
      "# a queue trace\n"
      "inv 0 0 Enqueue 5\n"
      "res 0 0 Enqueue 5 true\n"
      "inv 1 0 Dequeue\n"
      "res 1 0 Dequeue 5\n");
  ASSERT_EQ(h.size(), 4u);
  EXPECT_TRUE(h[0].is_inv());
  EXPECT_EQ(h[0].op.method, Method::kEnqueue);
  EXPECT_EQ(h[0].op.arg, 5);
  EXPECT_EQ(h[3].result, 5);
}

TEST(HistoryIo, SymbolicValues) {
  History h = parse_history_string(
      "inv 0 0 Dequeue\n"
      "res 0 0 Dequeue empty\n"
      "inv 0 1 Write 3\n"
      "res 0 1 Write 3 ok\n");
  EXPECT_EQ(h[1].result, kEmpty);
  EXPECT_EQ(h[3].result, kOk);
}

TEST(HistoryIo, CommentsAndBlankLines) {
  History h = parse_history_string(
      "\n# nothing\n  \n"
      "inv 2 7 Inc   # trailing comment\n"
      "res 2 7 Inc 1\n");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].op.id.pid, 2u);
  EXPECT_EQ(h[0].op.id.seq, 7u);
}

TEST(HistoryIo, RoundTripsRandomHistories) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (ObjectKind kind : {ObjectKind::kQueue, ObjectKind::kStack,
                            ObjectKind::kRegister, ObjectKind::kCounter}) {
      History h = test::random_linearizable_history(kind, 3, 12, seed);
      History back = parse_history_string(history_to_string(h));
      ASSERT_EQ(back.size(), h.size());
      for (size_t i = 0; i < h.size(); ++i) {
        EXPECT_TRUE(back[i] == h[i]) << i;
      }
    }
  }
}

TEST(HistoryIo, ErrorsCarryLineNumbers) {
  try {
    parse_history_string("inv 0 0 Enqueue 1\nbogus line here\n");
    FAIL() << "expected parse error";
  } catch (const HistoryParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(HistoryIo, RejectsBadMethod) {
  EXPECT_THROW(parse_history_string("inv 0 0 Frobnicate 1\n"),
               HistoryParseError);
}

TEST(HistoryIo, RejectsMissingArgument) {
  EXPECT_THROW(parse_history_string("inv 0 0 Enqueue\n"), HistoryParseError);
}

TEST(HistoryIo, RejectsTrailingTokens) {
  EXPECT_THROW(parse_history_string("inv 0 0 Dequeue 5 extra\n"),
               HistoryParseError);
}

TEST(HistoryIo, RejectsResponseWithoutResult) {
  EXPECT_THROW(parse_history_string("inv 0 0 Dequeue\nres 0 0 Dequeue\n"),
               HistoryParseError);
}

TEST(HistoryIo, PidAndSeqAreWholeUnsigned32BitTokens) {
  // A trailing suffix, a sign, or a value past 2^32 - 1 is an error — not a
  // silent prefix parse ("3x" -> 3), a wrap-around ("-1" -> 4294967295), or
  // a truncation (4294967296 -> pid 0, aliasing another process).
  for (const char* text :
       {"inv 0 3x Read\n", "inv -1 0 Read\n", "inv 4294967296 0 Read\n",
        "inv +1 0 Read\n", "inv 0 0x1 Read\n", "inv 0 99999999999 Read\n"}) {
    try {
      parse_history_string(text);
      FAIL() << "accepted: " << text;
    } catch (const HistoryParseError& e) {
      EXPECT_EQ(e.line(), 1u) << text;
      EXPECT_NE(std::string(e.what()).find("bad pid/seq"), std::string::npos)
          << text << " -> " << e.what();
    }
  }
  // The extremes parse exactly, and a huge pid is an ordinary process.
  History h = parse_history_string(
      "inv 4294967295 4294967295 Read\nres 4294967295 4294967295 Read 0\n"
      "inv 4000000000 0 Write 1\nres 4000000000 0 Write 1 ok\n");
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0].op.id.pid, 4294967295u);
  EXPECT_EQ(h[0].op.id.seq, 4294967295u);
  EXPECT_EQ(h[2].op.id.pid, 4000000000u);
}

TEST(HistoryIo, ValuesAreWholeSigned64BitTokens) {
  EXPECT_EQ(parse_history_string("inv 0 0 Write -7\n")[0].op.arg, -7);
  for (const char* text :
       {"inv 0 0 Write 5x\n", "inv 0 0 Write +5\n",
        "inv 0 0 Write 9223372036854775808\n", "inv 0 0 Write --1\n"}) {
    try {
      parse_history_string(text);
      FAIL() << "accepted: " << text;
    } catch (const HistoryParseError& e) {
      EXPECT_NE(std::string(e.what()).find("bad argument"), std::string::npos)
          << text << " -> " << e.what();
    }
  }
  EXPECT_THROW(
      parse_history_string("inv 0 0 Read\nres 0 0 Read 1.5\n"),
      HistoryParseError);
}

TEST(HistoryIo, RejectsMalformedHistory) {
  // Well-formedness is validated after parsing: response with no invocation.
  EXPECT_THROW(parse_history_string("res 0 0 Dequeue empty\n"),
               HistoryParseError);
}

TEST(HistoryStream, ReadsEventsIncrementally) {
  std::istringstream in(
      "# trace\n"
      "inv 0 0 Enqueue 5\n"
      "\n"
      "res 0 0 Enqueue 5 true\n"
      "inv 1 0 Dequeue\n"
      "res 1 0 Dequeue 5\n");
  HistoryStreamReader r(in);
  std::optional<Event> e = r.next();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is_inv());
  EXPECT_EQ(r.line(), 2u);  // comment line consumed, event on line 2
  size_t n = 1;
  while ((e = r.next()).has_value()) ++n;
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(r.events(), 4u);
  EXPECT_FALSE(r.next().has_value());  // sticky EOF
}

TEST(HistoryStream, ReadBatchChunksTheStream) {
  History h = test::random_linearizable_history(ObjectKind::kQueue, 3, 20, 9);
  std::istringstream in(history_to_string(h));
  HistoryStreamReader r(in);
  std::vector<Event> got;
  size_t n;
  while ((n = r.read_batch(got, 7)) > 0) {
    EXPECT_LE(n, 7u);
  }
  ASSERT_EQ(got.size(), h.size());
  for (size_t i = 0; i < h.size(); ++i) EXPECT_TRUE(got[i] == h[i]) << i;
}

TEST(HistoryStream, WellFormednessViolationsSurfaceAtTheLine) {
  // Response without a pending invocation: caught at line 1, not at EOF.
  {
    std::istringstream in("res 0 0 Dequeue empty\n");
    HistoryStreamReader r(in);
    try {
      r.next();
      FAIL() << "expected well-formedness error";
    } catch (const HistoryParseError& e) {
      EXPECT_EQ(e.line(), 1u);
    }
  }
  // Overlapping invocations by one process: caught at the second inv.
  {
    std::istringstream in("inv 0 0 Dequeue\ninv 0 1 Dequeue\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Duplicate op id (same pid.seq re-invoked after completing).
  {
    std::istringstream in(
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\ninv 0 0 Dequeue\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Response not matching the pending invocation's descriptor.
  {
    std::istringstream in("inv 0 0 Enqueue 5\nres 0 0 Enqueue 6 true\n");
    HistoryStreamReader r(in);
    EXPECT_TRUE(r.next().has_value());
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  // Out-of-order per-process seqs are legal; re-using one is not — the
  // duplicate check must catch both sides of the contiguous prefix.
  {
    std::istringstream in(
        "inv 0 5 Dequeue\nres 0 5 Dequeue empty\n"
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\n"
        "inv 0 5 Dequeue\n");
    HistoryStreamReader r(in);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.next().has_value()) << i;
    EXPECT_THROW(r.next(), HistoryParseError);
  }
  {
    std::istringstream in(
        "inv 0 0 Dequeue\nres 0 0 Dequeue empty\ninv 0 1 Dequeue\n"
        "res 0 1 Dequeue empty\ninv 0 0 Dequeue\n");
    HistoryStreamReader r(in);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.next().has_value()) << i;
    EXPECT_THROW(r.next(), HistoryParseError);
  }
}

TEST(HistoryStream, AgreesWithParseHistoryOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    History h =
        test::random_linearizable_history(ObjectKind::kStack, 3, 15, seed);
    std::string text = history_to_string(h);
    History parsed = parse_history_string(text);
    std::istringstream in(text);
    HistoryStreamReader r(in);
    History streamed;
    while (auto e = r.next()) streamed.push_back(*e);
    ASSERT_EQ(streamed.size(), parsed.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_TRUE(streamed[i] == parsed[i]) << i;
    }
  }
}

TEST(HistoryIo, CertificateExportImportAudit) {
  // End-to-end forensic flow: run a faulty impl under self-enforcement,
  // export the certificate as text, re-import, and convict offline.
  auto impl = make_thm51_queue(0);
  auto obj = make_linearizable_object(make_queue_spec());
  SelfEnforced se(2, *impl, *obj);
  (void)se.apply(0, Method::kDequeue);  // the lie
  std::string exported = history_to_string(se.certificate(0));
  History reimported = parse_history_string(exported);
  EXPECT_FALSE(obj->contains(reimported));
}

}  // namespace
}  // namespace selin
