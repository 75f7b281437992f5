#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

// ---- Tracer ---------------------------------------------------------------

uint32_t Tracer::layer_index(std::string_view layer) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == layer) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(layer);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::begin(std::string_view layer, uint64_t id, uint32_t parent) {
  if (!on_) return kNone;
  uint32_t h;
  if (free_.empty()) {
    h = static_cast<uint32_t>(open_.size());
    open_.emplace_back();
  } else {
    h = free_.back();
    free_.pop_back();
  }
  Open& o = open_[h];
  o.layer = layer_index(layer);
  o.parent = parent;
  o.id = id;
  o.child_ns = 0;
  if (spans_.size() < kStoredSpans) {
    o.stored = static_cast<uint32_t>(spans_.size());
    const uint32_t stored_parent =
        parent == kNone ? kNone : open_[parent].stored;
    spans_.push_back(Span{o.layer, stored_parent, id, 0, 0});
  } else {
    o.stored = kNone;
    ++dropped_;
  }
  o.start = now_ns();  // last, so bookkeeping stays outside the span
  return h;
}

void Tracer::end(uint32_t h) {
  const int64_t t = now_ns();
  Open& o = open_[h];
  const int64_t dur = t - o.start;
  LayerTime& lt = totals_[names_[o.layer]];
  lt.total_ns += dur;
  lt.child_ns += o.child_ns;
  ++lt.spans;
  if (o.parent != kNone) open_[o.parent].child_ns += dur;
  if (o.stored != kNone) {
    spans_[o.stored].start = o.start;
    spans_[o.stored].end = t;
  }
  free_.push_back(h);
}

int64_t Tracer::self_ns(const std::string& layer) const {
  const auto it = totals_.find(layer);
  return it == totals_.end() ? 0 : it->second.self_ns();
}

void Tracer::absorb(const Tracer& other) {
  const auto base = static_cast<uint32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    if (spans_.size() >= kStoredSpans) {
      ++dropped_;
      continue;
    }
    Span copy = s;
    copy.layer = layer_index(other.names_[s.layer]);
    if (copy.parent != kNone) copy.parent += base;
    spans_.push_back(copy);
  }
  dropped_ += other.dropped_;
  for (const auto& [name, t] : other.totals_) {
    LayerTime& mine = totals_[name];
    mine.total_ns += t.total_ns;
    mine.child_ns += t.child_ns;
    mine.spans += t.spans;
  }
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"layer\":\"" << names_[s.layer]
        << "\",\"id\":" << s.id << ",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"parent\":";
    if (s.parent == kNone) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- snapshot reader ------------------------------------------------------

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (const auto& [le, n] : buckets) {
    if (seen + static_cast<double>(n) >= rank && n > 0) {
      const double lo = le == 0 ? 0.0 : static_cast<double>((le >> 1) + 1);
      const double hi = std::min(static_cast<double>(le),
                                 static_cast<double>(max));
      const double frac = (rank - seen) / static_cast<double>(n);
      return lo + (std::max(hi, lo) - lo) * frac;
    }
    seen += static_cast<double>(n);
  }
  return static_cast<double>(max);
}

double SnapshotData::scalar(const std::string& name) const {
  const auto it = scalars.find(name);
  return it == scalars.end() ? 0.0 : it->second;
}

const HistogramData& SnapshotData::histogram(const std::string& name) const {
  static const HistogramData empty;
  const auto it = histograms.find(name);
  return it == histograms.end() ? empty : it->second;
}

namespace {

/// Just enough JSON for obs::snapshot_json: objects, arrays, strings
/// (escapes kept verbatim), integers.
struct JValue {
  enum Kind { kNull, kNum, kStr, kArr, kObj } kind = kNull;
  double num = 0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;
  const JValue* get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JParser {
 public:
  explicit JParser(std::string_view s) : s_(s) {}
  bool parse(JValue& out) {
    if (!value(out, 0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool string(std::string& out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) out.push_back(s_[i_++]);
      out.push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool value(JValue& out, int depth) {
    if (depth > 16) return false;
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      out.kind = JValue::kObj;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      for (;;) {
        ws();
        std::string key;
        if (!string(key)) return false;
        ws();
        if (i_ >= s_.size() || s_[i_] != ':') return false;
        ++i_;
        JValue v;
        if (!value(v, depth + 1)) return false;
        out.obj.emplace_back(std::move(key), std::move(v));
        ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        return false;
      }
    }
    if (c == '[') {
      out.kind = JValue::kArr;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      for (;;) {
        JValue v;
        if (!value(v, depth + 1)) return false;
        out.arr.push_back(std::move(v));
        ws();
        if (i_ < s_.size() && s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
        return false;
      }
    }
    if (c == '"') {
      out.kind = JValue::kStr;
      return string(out.str);
    }
    const std::string rest(s_.substr(i_, 32));
    char* end = nullptr;
    out.num = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out.kind = JValue::kNum;
    i_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view s_;
  size_t i_ = 0;
};

uint64_t as_u64(const JValue* v) {
  if (v == nullptr || v->kind != JValue::kNum || !(v->num > 0)) return 0;
  if (v->num >= 18446744073709551615.0) return UINT64_MAX;  // saturated bound
  return static_cast<uint64_t>(v->num);
}

}  // namespace

bool parse_snapshot(std::string_view json, SnapshotData& out) {
  JValue root;
  if (!JParser(json).parse(root) || root.kind != JValue::kObj) return false;
  const JValue* metrics = root.get("metrics");
  if (metrics == nullptr || metrics->kind != JValue::kArr) return false;
  for (const JValue& m : metrics->arr) {
    const JValue* name = m.get("name");
    const JValue* kind = m.get("kind");
    if (name == nullptr || kind == nullptr) return false;
    if (kind->str == "histogram") {
      HistogramData& h = out.histograms[name->str];
      h.count += as_u64(m.get("count"));
      h.sum += as_u64(m.get("sum"));
      h.max = std::max(h.max, as_u64(m.get("max")));
      if (const JValue* b = m.get("buckets"); b != nullptr) {
        for (const JValue& row : b->arr) {
          if (row.arr.size() != 2) return false;
          h.buckets[as_u64(&row.arr[0])] += as_u64(&row.arr[1]);
        }
      }
    } else {
      const JValue* v = m.get("value");
      const double x = v != nullptr ? v->num : 0.0;
      out.scalars[name->str] += x;
      auto [it, fresh] = out.maxima.emplace(name->str, x);
      if (!fresh) it->second = std::max(it->second, x);
    }
  }
  return true;
}

double json_number(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return -1;
  const std::string rest(json.substr(at + needle.size(), 32));
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  return end == rest.c_str() ? -1 : v;
}

}  // namespace perfbench
