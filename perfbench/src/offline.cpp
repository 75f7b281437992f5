// offline_register_w4: `selin_check register <corpus> --jobs 4`, a batch
// run over a generated corpus of width-4 register histories.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupRuns = 31;
constexpr int kMinReps = 3;
constexpr int kJobs = 4;

/// The corpus on disk for the length of a run.
class CorpusDir {
 public:
  CorpusDir(const Config& cfg, const std::vector<Planted>& corpus) {
    dir_ = cfg.work_dir + "/corpus-" + std::to_string(::getpid());
    ::mkdir(dir_.c_str(), 0755);
    for (size_t i = 0; i < corpus.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "/h%03zu.txt", i);
      files_.push_back(dir_ + name);
      std::ofstream(files_.back()) << to_text(corpus[i].events);
    }
    empty_ = dir_ + "/empty.txt";
    std::ofstream{empty_};
  }
  ~CorpusDir() {
    for (const std::string& f : files_) std::remove(f.c_str());
    std::remove(empty_.c_str());
    ::rmdir(dir_.c_str());
  }
  CorpusDir(const CorpusDir&) = delete;
  CorpusDir& operator=(const CorpusDir&) = delete;

  const std::vector<std::string>& files() const { return files_; }
  const std::string& empty() const { return empty_; }

 private:
  std::string dir_;
  std::vector<std::string> files_;
  std::string empty_;
};

std::vector<std::string> check_argv(const Config& cfg,
                                    const std::vector<std::string>& files,
                                    int jobs,
                                    const std::vector<std::string>& extra) {
  std::vector<std::string> argv = {cfg.bin_dir + "/selin_check", "register"};
  argv.insert(argv.end(), files.begin(), files.end());
  argv.push_back("--jobs");
  argv.push_back(std::to_string(jobs));
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

/// Compares the --quiet verdict table (one line per non-OK file) with the
/// planted verdicts.
void check_table(const std::string& out, const CorpusDir& dir,
                     const std::vector<Planted>& corpus, Report& rep) {
  std::map<std::string, std::string> verdicts;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string file, verdict;
    if (words >> file >> verdict) verdicts[file] = verdict;
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto it = verdicts.find(dir.files()[i]);
    const std::string got = it == verdicts.end() ? "OK" : it->second;
    const std::string want = corpus[i].linearizable ? "OK" : "VIOLATION";
    if (got != want) {
      rep.fail("selin_check: " + dir.files()[i] + " " + got + ", planted " +
               want);
    }
  }
}

struct Reps {
  Samples wall_ms;
  long max_rss_kb = 0;
  std::string last_out;
};

const std::vector<std::string> kQuiet = {"--quiet"};
const std::vector<std::string> kMetrics = {"--metrics", "-"};

/// selin_check runs on the corpus until `seconds` have passed (at least
/// kMinReps).  With kQuiet the verdict table is checked; with kMetrics
/// stdout is the metrics document and only the exit code is checked (1:
/// some history is not linearizable).
Reps run_reps(const Config& cfg, const CorpusDir& dir,
              const std::vector<Planted>& corpus, double seconds,
              const std::vector<std::string>& extra, Tracer& tr, Report& rep) {
  Reps r;
  const auto argv = check_argv(cfg, dir.files(), kJobs, extra);
  // One untimed run first: the binary and the corpus come in from disk, so
  // the first run of a checkout is much slower than the rest.
  if (run_child(argv, nullptr, nullptr, nullptr) != 1) {
    rep.fail("selin_check warm-up run did not exit with 1");
  }
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < kMinReps || now_ns() < deadline; ++i) {
    int64_t wall = 0;
    long rss = 0;
    int code;
    {
      Scope span(tr, "offline.selin_check", static_cast<uint64_t>(i));
      code = run_child(argv, &r.last_out, &wall, &rss);
    }
    rep.attempted += corpus.size();
    r.wall_ms.add(static_cast<double>(wall) / 1e6);
    r.max_rss_kb = std::max(r.max_rss_kb, rss);
    if (code != 1) {
      rep.fail("selin_check exited with " + std::to_string(code) +
               ", expected 1");
    } else if (extra == kQuiet) {
      check_table(r.last_out, dir, corpus, rep);
    }
  }
  return r;
}

}  // namespace

Report run_offline(const Config& cfg, Tracer& tr) {
  Report rep;
  const std::vector<Planted> corpus =
      make_register_corpus(cfg.seed, kOfflineHistories, kOfflineOps);
  size_t events = 0;
  for (const Planted& p : corpus) events += p.events.size();
  const CorpusDir dir(cfg, corpus);

  Samples setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    int64_t wall = 0;
    const int code =
        run_child(check_argv(cfg, {dir.empty()}, kJobs, kQuiet), nullptr,
                  &wall, nullptr);
    if (code != 0) {
      rep.fail("selin_check on an empty history exited with " +
               std::to_string(code));
    }
    setup_s.add(static_cast<double>(wall) / 1e9);
  }
  rep.set("setup_s", setup_s.median(), "s", setup_s.size());

  const auto eps = [&](const Reps& r) {
    return static_cast<double>(events) / (r.wall_ms.median() / 1e3);
  };
  if (!cfg.trace) {
    const Reps r = run_reps(cfg, dir, corpus, cfg.seconds, kQuiet, tr, rep);
    rep.set("events_per_s", eps(r), "1/s", r.wall_ms.size());
    rep.set("ops_per_s", eps(r) / 2, "1/s", r.wall_ms.size());
    rep.set("histories_per_s",
            static_cast<double>(corpus.size()) / (r.wall_ms.median() / 1e3),
            "1/s", r.wall_ms.size());
    rep.set("verdict_p50_ms", r.wall_ms.quantile(0.5), "ms", r.wall_ms.size());
    rep.set("verdict_p99_ms", r.wall_ms.quantile(0.99), "ms", r.wall_ms.size());
    rep.set("peak_rss_mb", static_cast<double>(r.max_rss_kb) / 1024.0, "MB");
    return rep;
  }

  // Traced: half plain runs, half with the metrics plane exported; the
  // throughput ratio is the tracing cost.
  Tracer off(false);
  const Reps plain =
      run_reps(cfg, dir, corpus, cfg.seconds / 2, kQuiet, off, rep);
  const Reps traced =
      run_reps(cfg, dir, corpus, cfg.seconds / 2, kMetrics, tr, rep);
  rep.set("trace_overhead_frac", eps(plain) / eps(traced) - 1, "frac");
  rep.set("verdict_p99_ms", plain.wall_ms.quantile(0.99), "ms",
          plain.wall_ms.size());
  const SnapshotData snap = snapshot_of(traced.last_out, rep);
  engine_instruments(snap, rep);
  service_instruments(snap, rep);

  int64_t one_job = 0;
  {
    Scope span(tr, "offline.selin_check_1job", 0);
    if (run_child(check_argv(cfg, dir.files(), 1, kQuiet), nullptr,
                  &one_job, nullptr) != 1) {
      rep.fail("selin_check --jobs 1 did not exit with 1");
    }
  }
  rep.set("parallel.speedup_vs_1job",
          static_cast<double>(one_job) / 1e6 / plain.wall_ms.median(), "x");

  // Layers inside selin_check, replayed in-process on the corpus.
  const std::vector<Planted> sample = take_events(corpus, 1 << 17);
  measure_wire(sample, tr, rep);
  measure_io(sample, tr, rep);
  measure_engine(sample, false, tr, rep);
  service_timings(run_service(sample, kJobs, false, tr, rep), rep);
  measure_core_replay(take_events(corpus, 1 << 13), tr, rep);
  measure_net_replay(cfg, take_events(corpus, 1 << 15), tr, rep);
  return rep;
}

}  // namespace perfbench
