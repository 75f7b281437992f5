// perfbench — the measuring half of the repository benchmark (run.py builds
// it and formats its result).
//
//   perfbench --workload <ingest_uds|offline_register_w4|enforced_queue_8slots>
//             --seed N --seconds S --trace 0|1
//             --bin-dir <dir with selin_check, selin_ingestd>
//             --work-dir <scratch dir> [--trace-out <spans.jsonl>]
//
// Prints `build {"compiler":..,"build_type":..}`, one
// `metric <name> <value> <unit> n=<samples>` line per measured metric (a
// traced run adds `self.<layer>_ms`: the layer's span time minus its child
// spans, and writes the spans to --trace-out as JSONL), then as its last
// line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit},..}}
// Exit codes: 0 = measured (check "correct"), 2 = usage or build error.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <ingest_uds|offline_register_w4|"
               "enforced_queue_8slots> --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --work-dir DIR [--trace-out FILE]\n";
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string trace_path;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
      have_trace = true;
    } else if (flag == "--bin-dir") {
      cfg.bin_dir = v;
    } else if (flag == "--work-dir") {
      cfg.work_dir = v;
    } else if (flag == "--trace-out") {
      trace_path = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_trace || cfg.seconds <= 0 ||
      cfg.bin_dir.empty() || cfg.work_dir.empty()) {
    return usage();
  }
  if (trace_path.empty()) trace_path = cfg.work_dir + "/spans.jsonl";
#ifndef NDEBUG
  std::cerr << "perfbench: assertions are enabled; refusing to measure\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: build type " << PERFBENCH_BUILD_TYPE
              << " is not Release; refusing to measure\n";
    return 2;
  }

  std::cout << "build {\"compiler\":\"" << PERFBENCH_COMPILER
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\"}\n";
  Tracer tr(cfg.trace);
  Report rep;
  if (cfg.workload == "ingest_uds") {
    rep = run_ingest(cfg, tr);
  } else if (cfg.workload == "offline_register_w4") {
    rep = run_offline(cfg, tr);
  } else if (cfg.workload == "enforced_queue_8slots") {
    rep = run_enforced(cfg, tr);
  } else {
    return usage();
  }
  if (cfg.trace) {
    for (const auto& [layer, t] : tr.layers()) {
      rep.set("self." + layer + "_ms", static_cast<double>(t.self_ns()) / 1e6,
              "ms", t.spans);
    }
    rep.set("trace.spans_not_stored", static_cast<double>(tr.dropped()),
            "count");
    if (!tr.write_jsonl(trace_path)) rep.fail("cannot write " + trace_path);
  }
  rep.set("fail_frac",
          rep.attempted == 0 ? 1.0
                             : static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted),
          "frac", rep.attempted);

  for (const std::string& f : rep.failures) std::cerr << "FAIL " << f << "\n";
  std::string json = "{\"correct\":";
  json += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(rep.attempted);
  json += ",\"failed\":" + std::to_string(rep.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    std::cout << "metric " << name << " " << json_number(m.value) << " "
              << m.unit << " n=" << m.samples << "\n";
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":{\"value\":" + json_number(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
