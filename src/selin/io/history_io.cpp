#include "selin/io/history_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace selin {

namespace {

// The C-locale std::isspace set, without the locale lookup.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Whole-token decimal integer: no sign for unsigned T, no '+', no
/// trailing characters, no wrap-around on overflow.
template <typename T>
bool parse_int(std::string_view tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::optional<Method> parse_method(std::string_view name) {
  static constexpr std::pair<std::string_view, Method> kTable[] = {
      {"Enqueue", Method::kEnqueue},     {"Dequeue", Method::kDequeue},
      {"Push", Method::kPush},           {"Pop", Method::kPop},
      {"Insert", Method::kInsert},       {"Remove", Method::kRemove},
      {"Contains", Method::kContains},   {"PqInsert", Method::kPqInsert},
      {"PqExtractMin", Method::kPqExtractMin},
      {"Inc", Method::kInc},             {"CounterRead", Method::kCounterRead},
      {"Read", Method::kRead},           {"Write", Method::kWrite},
      {"Decide", Method::kDecide},       {"Exchange", Method::kExchange},
      {"WriteSnap", Method::kWriteSnap},
  };
  for (const auto& [n, m] : kTable) {
    if (name == n) return m;
  }
  return std::nullopt;
}

bool method_takes_arg(Method m) {
  switch (m) {
    case Method::kEnqueue:
    case Method::kPush:
    case Method::kInsert:
    case Method::kRemove:
    case Method::kContains:
    case Method::kPqInsert:
    case Method::kWrite:
    case Method::kDecide:
    case Method::kExchange:
    case Method::kWriteSnap:
      return true;
    default:
      return false;
  }
}

std::optional<Value> parse_value(std::string_view token) {
  if (token == "empty") return kEmpty;
  if (token == "ok") return kOk;
  if (token == "true") return kTrue;
  if (token == "false") return kFalse;
  if (token == "error") return kError;
  Value v;
  if (!parse_int(token, v)) return std::nullopt;
  return v;
}

std::optional<Event> parse_history_line(std::string_view line,
                                        size_t lineno) {
  // Tokenize in place into views: this runs once per line of every streamed
  // file, and a well-formed line has at most 6 tokens.  Tokens past the
  // sixth are only counted — no rule reads them.
  size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  constexpr size_t kMaxTok = 6;
  std::string_view tok[kMaxTok];
  size_t ntok = 0;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && is_space(line[pos])) ++pos;
    const size_t start = pos;
    while (pos < line.size() && !is_space(line[pos])) ++pos;
    if (pos > start) {
      if (ntok < kMaxTok) tok[ntok] = line.substr(start, pos - start);
      ++ntok;
    }
  }
  if (ntok == 0) return std::nullopt;

  if (tok[0] != "inv" && tok[0] != "res") {
    throw HistoryParseError(lineno, "expected 'inv' or 'res', got '" +
                                        std::string(tok[0]) + "'");
  }
  bool is_inv = tok[0] == "inv";
  if (ntok < 4) {
    throw HistoryParseError(lineno, "too few fields");
  }
  OpDesc op;
  if (!parse_int(tok[1], op.id.pid) || !parse_int(tok[2], op.id.seq)) {
    throw HistoryParseError(lineno, "bad pid/seq");
  }
  auto m = parse_method(tok[3]);
  if (!m.has_value()) {
    throw HistoryParseError(lineno,
                            "unknown method '" + std::string(tok[3]) + "'");
  }
  op.method = *m;
  size_t next = 4;
  if (method_takes_arg(*m)) {
    if (ntok <= next) {
      throw HistoryParseError(lineno, "method requires an argument");
    }
    auto arg = parse_value(tok[next++]);
    if (!arg.has_value()) throw HistoryParseError(lineno, "bad argument");
    op.arg = *arg;
  }
  if (is_inv) {
    if (ntok != next) {
      throw HistoryParseError(lineno, "trailing tokens on invocation");
    }
    return Event::inv(op);
  }
  if (ntok != next + 1) {
    throw HistoryParseError(lineno, "response requires exactly one result");
  }
  auto res = parse_value(tok[next]);
  if (!res.has_value()) throw HistoryParseError(lineno, "bad result");
  return Event::res(op, *res);
}

std::optional<Event> HistoryStreamReader::next() {
  while (std::getline(*in_, linebuf_)) {
    ++lineno_;
    std::optional<Event> e = parse_history_line(linebuf_, lineno_);
    if (!e.has_value()) continue;
    // Incremental well-formedness, same rules as well_formed(): violations
    // surface at the offending line rather than at end-of-stream.
    const ProcId p = e->op.id.pid;
    ProcState& ps = procs_[p];
    if (e->is_inv()) {
      if (ps.open) {
        throw HistoryParseError(
            lineno_, "history not well-formed: process p" + std::to_string(p) +
                         " invokes while an operation is pending");
      }
      if (!ps.seen.insert(e->op.id.seq)) {
        throw HistoryParseError(
            lineno_,
            "history not well-formed: duplicate invocation of " +
                to_string(e->op));
      }
      ps.open = true;
      ps.pending = e->op;
    } else {
      if (!ps.open) {
        throw HistoryParseError(
            lineno_, "history not well-formed: response without pending "
                     "invocation: " + to_string(*e));
      }
      if (!(ps.pending == e->op)) {
        throw HistoryParseError(
            lineno_, "history not well-formed: response " + to_string(*e) +
                         " does not match pending invocation");
      }
      ps.open = false;
    }
    ++count_;
    return e;
  }
  return std::nullopt;
}

size_t HistoryStreamReader::read_batch(std::vector<Event>& out, size_t max) {
  size_t n = 0;
  while (n < max) {
    std::optional<Event> e = next();
    if (!e.has_value()) break;
    out.push_back(*e);
    ++n;
  }
  return n;
}

History parse_history(std::istream& in) {
  HistoryStreamReader reader(in);
  History h;
  while (std::optional<Event> e = reader.next()) h.push_back(*e);
  return h;
}

History parse_history_string(const std::string& text) {
  std::istringstream in(text);
  return parse_history(in);
}

namespace {

const char* method_spelling(Method m) {
  switch (m) {
    case Method::kEnqueue: return "Enqueue";
    case Method::kDequeue: return "Dequeue";
    case Method::kPush: return "Push";
    case Method::kPop: return "Pop";
    case Method::kInsert: return "Insert";
    case Method::kRemove: return "Remove";
    case Method::kContains: return "Contains";
    case Method::kPqInsert: return "PqInsert";
    case Method::kPqExtractMin: return "PqExtractMin";
    case Method::kInc: return "Inc";
    case Method::kCounterRead: return "CounterRead";
    case Method::kRead: return "Read";
    case Method::kWrite: return "Write";
    case Method::kDecide: return "Decide";
    case Method::kExchange: return "Exchange";
    case Method::kWriteSnap: return "WriteSnap";
  }
  return "?";
}

std::string value_token(Value v) {
  if (v == kEmpty) return "empty";
  if (v == kOk) return "ok";
  if (v == kError) return "error";
  return std::to_string(v);
}

}  // namespace

void write_history(std::ostream& out, const History& h) {
  for (const Event& e : h) {
    out << (e.is_inv() ? "inv " : "res ") << e.op.id.pid << " " << e.op.id.seq
        << " " << method_spelling(e.op.method);
    if (method_takes_arg(e.op.method)) out << " " << value_token(e.op.arg);
    if (e.is_res()) out << " " << value_token(e.result);
    out << "\n";
  }
}

std::string history_to_string(const History& h) {
  std::ostringstream os;
  write_history(os, h);
  return os.str();
}

}  // namespace selin
