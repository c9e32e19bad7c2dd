// bench_e2e: end-to-end benchmark of ftdag through the path users take,
// Runtime::submit + JobSession::wait, on four closed-loop workloads (see
// README.md next to this file for why each one exists):
//
//   clean    1 job outstanding, FT executor, scale 0.75, no faults
//   faults   clean + per job a fresh 5% v=rand fault plan (not on FW) and
//            sample:0.25 voting
//   durable  clean at scale 0.5 + WAL batch, then a resume=true resubmit
//   multi    8 jobs outstanding over max_inflight=4, scale 0.25
//
// Scales shrink the Table I scaled default grids (apps/app_config.hpp).
//
// One process runs one workload: set-up (repeated, median reported), a
// warm-up, then a fixed window. Every job is validated against the
// sequential reference and checked by the workload's self-checks. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}:
// end-to-end metrics without --trace, per-layer metrics with it.
//
// --trace additionally records spans (job, submit, queue, run, engine;
// resume jobs get a "resume" root) for jobs submitted in every other
// twentieth of the window, writes them as a Chrome trace, and runs the
// layer ladder: the clean-size five-app mix through each layer in turn,
// so each layer's cost is one subtraction.
//
// Layers are measured from outside, through their public functions and
// counters only: Runtime::submit/counters, JobSession latencies, ExecReport,
// WorkStealingPool::stats, TaskGraphProblem::reset_data/result_checksum.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_config.hpp"
#include "apps/app_registry.hpp"
#include "fault/fault_plan.hpp"
#include "replication/replication_policy.hpp"
#include "runtime/runtime.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/xoshiro.hpp"

#ifndef FTDAG_BENCH_COMMIT
#define FTDAG_BENCH_COMMIT "unknown"
#endif
#ifndef FTDAG_BENCH_BUILD_TYPE
#define FTDAG_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef FTDAG_BENCH_COMPILER
#define FTDAG_BENCH_COMPILER "unknown"
#endif

using namespace ftdag;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

struct Workload {
  const char* name;
  double scale;               // of the default grids; 1 = default sizes
  std::size_t outstanding;    // jobs the generator keeps submitted
  std::size_t max_inflight;   // Runtime admission slots
  bool faults;                // fault plan per job + replication sample:0.25
  // WAL batch with a snapshot every this many records, then a resume
  // resubmit; 0 = durability off.
  std::uint64_t snapshot_every;
};

// Sizes are chosen so that even a 15 s window holds the 200 jobs a p95 needs
// on a slow host: at default sizes faults ran 8-18 jobs/s on 4 vCPUs,
// and durable ~5 write+resume cycles/s. durable's snapshot interval shrinks
// with its task count (about scale^2), keeping ~4 snapshots per LCS job as
// 1024 does at default size.
constexpr double kMixScale = 0.75;
constexpr Workload kWorkloads[] = {
    {"clean", kMixScale, 1, 1, false, 0},
    {"faults", kMixScale, 1, 1, true, 0},
    {"durable", 0.5, 1, 1, false, 256},
    {"multi", 0.25, 8, 4, false, 0},
};

constexpr double kFaultFraction = 0.05;
// FW jobs in `faults` run without a fault plan: on FW a 5% plan with
// replication on, even before-compute, now and then sets off a recovery
// cascade (one job took 1.1M re-executions and 31 s on 4 workers), which
// would make the window measure that single job. README.md has the details.
constexpr const char* kNoFaultApp = "fw";
constexpr const char* kReplication = "sample:0.25";
constexpr std::uint64_t kLadderSnapshotEvery = 1024;
// A traced window alternates traced and untraced slices of window/20, so
// host drift hits both alike and their rates give the tracing overhead.
constexpr double kTraceSlicesPerWindow = 20.0;

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

RunSpec ft_spec() {
  RunSpec spec;
  spec.kind = ExecutorKind::kFaultTolerant;
  spec.reps = 1;
  return spec;
}

persist::DurabilityOptions wal_options(const std::string& dir,
                                       persist::WalSync sync,
                                       std::uint64_t snapshot_every,
                                       bool resume) {
  persist::DurabilityOptions d;
  d.dir = dir;
  d.sync = sync;
  d.snapshot_every = snapshot_every;
  d.resume = resume;
  return d;
}

// --- set-up ------------------------------------------------------------------

// Everything a workload needs before its first submit. Each app keeps one
// problem instance per job the generator can have outstanding (problems are
// stateful: one instance per in-flight job).
struct Fixture {
  std::vector<std::string> apps;
  std::vector<std::vector<std::unique_ptr<TaskGraphProblem>>> idle;
  // faults only; null for kNoFaultApp
  std::vector<std::unique_ptr<FaultPlanner>> planners;
  std::unique_ptr<Runtime> runtime;
  double build_ms = 0, reference_ms = 0, planner_ms = 0, runtime_ms = 0;
  double seconds = 0;
};

std::vector<std::unique_ptr<TaskGraphProblem>> make_mix(
    const std::vector<std::string>& apps, double scale) {
  std::vector<std::unique_ptr<TaskGraphProblem>> out;
  for (const std::string& app : apps)
    out.push_back(make_app(app, scale_config(default_config(app), scale)));
  return out;
}

Fixture set_up(const Workload& w, double scale, unsigned threads) {
  Fixture f;
  const double t0 = now_s();
  f.apps = paper_benchmarks();
  f.idle.resize(f.apps.size());
  for (std::size_t k = 0; k < w.outstanding; ++k) {
    auto mix = make_mix(f.apps, scale);
    for (std::size_t a = 0; a < mix.size(); ++a)
      f.idle[a].push_back(std::move(mix[a]));
  }
  const double t1 = now_s();
  for (auto& instances : f.idle)
    for (auto& p : instances) (void)p->reference_checksum();
  const double t2 = now_s();
  if (w.faults)
    for (std::size_t a = 0; a < f.apps.size(); ++a)
      f.planners.push_back(
          f.apps[a] == kNoFaultApp
              ? nullptr
              : std::make_unique<FaultPlanner>(*f.idle[a].front()));
  const double t3 = now_s();
  Runtime::Options opts;
  opts.threads = threads;
  opts.max_inflight = w.max_inflight;
  f.runtime = std::make_unique<Runtime>(opts);
  const double t4 = now_s();
  f.build_ms = (t1 - t0) * 1e3;
  f.reference_ms = (t2 - t1) * 1e3;
  f.planner_ms = (t3 - t2) * 1e3;
  f.runtime_ms = (t4 - t3) * 1e3;
  f.seconds = t4 - t0;
  return f;
}

// --- tracing -----------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t job;  // JobSession id, shared by every span of one job
  int parent;         // index into the span vector, -1 for a root
  int lane;           // generator slot, the Chrome trace row
  double begin, end;  // seconds since process start
};

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}%s\n",
                 s.name, s.lane, s.begin * 1e6, (s.end - s.begin) * 1e6,
                 (unsigned long long)s.job, i, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// --- the closed loop ---------------------------------------------------------

struct JobRecord {
  std::size_t app = 0;
  bool resume = false;      // durable read-path resubmission
  double latency_s = 0.0;   // submit call to terminal state
  ExecReport report;
};

struct InFlight {
  JobHandle handle;
  std::unique_ptr<TaskGraphProblem> problem;
  std::unique_ptr<PlannedFaultInjector> injector;
  std::size_t app = 0;
  std::uint64_t index = 0;
  double submit_begin = 0.0, submit_end = 0.0;
  bool traced = false;
  int lane = 0;
};

class Generator {
 public:
  Generator(const Workload& w, Fixture& f, std::uint64_t seed,
            std::string persist_dir)
      : w_(w), f_(f), seed_(seed), rng_(seed),
        persist_dir_(std::move(persist_dir)) {
    if (w_.faults) replication_ = ReplicationPolicy::parse(kReplication);
  }

  // Runs the closed loop for `seconds`, then drains what is outstanding.
  // Jobs are recorded only when `record`; with `trace`, jobs submitted in
  // even slices get spans.
  void run(double seconds, bool record, bool trace) {
    record_ = record;
    trace_ = trace;
    start_ = now_s();
    slice_ = seconds / kTraceSlicesPerWindow;
    const double deadline = start_ + seconds;
    std::deque<InFlight> queue;
    std::vector<int> free_lanes;  // trace rows, one per outstanding job
    for (int lane = static_cast<int>(w_.outstanding) - 1; lane >= 0; --lane)
      free_lanes.push_back(lane);
    auto retire = [&](InFlight& j) {
      finish(j);
      free_lanes.push_back(j.lane);
    };
    for (;;) {
      while (queue.size() < w_.outstanding && now_s() < deadline) {
        queue.push_back(submit_next(free_lanes.back()));
        free_lanes.pop_back();
      }
      if (queue.empty()) break;
      // Wait on the oldest (dispatch is FIFO, so it started first), then
      // settle every other job that has also finished meanwhile.
      retire(queue.front());
      queue.pop_front();
      for (auto it = queue.begin(); it != queue.end();) {
        if (job_state_terminal(it->handle->state())) {
          retire(*it);
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }
    elapsed_ = now_s() - start_;
  }

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const std::vector<Span>& spans() const { return spans_; }
  double elapsed() const { return elapsed_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }
  // Jobs submitted in traced and in untraced slices; both kinds cover
  // half the window each.
  double traced_jobs() const { return slice_jobs_[0]; }
  double untraced_jobs() const { return slice_jobs_[1]; }

 private:
  bool durable() const { return w_.snapshot_every > 0; }

  std::size_t next_app() {
    if (order_pos_ == order_.size()) {
      order_.resize(f_.apps.size());
      for (std::size_t a = 0; a < order_.size(); ++a) order_[a] = a;
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_.below(i)]);
      order_pos_ = 0;
    }
    return order_[order_pos_++];
  }

  bool slice_traced(double t) const {
    return trace_ && static_cast<std::uint64_t>((t - start_) / slice_) % 2 == 0;
  }

  std::string job_dir(std::uint64_t index) const {
    return "job-" + std::to_string(index);
  }

  InFlight submit_next(int lane) {
    InFlight j;
    j.index = next_index_++;
    j.app = next_app();
    j.lane = lane;
    j.problem = std::move(f_.idle[j.app].back());
    f_.idle[j.app].pop_back();
    RunSpec spec = ft_spec();
    if (w_.faults) spec.ft.replication = replication_;
    if (w_.faults && f_.planners[j.app] != nullptr) {
      FaultPlanSpec plan;
      plan.phase = j.index % 2 == 0 ? FaultPhase::kBeforeCompute
                                    : FaultPhase::kAfterCompute;
      plan.type = VictimType::kVersionRand;
      plan.target_fraction = kFaultFraction;
      plan.seed = mix64(seed_ ^ mix64(j.index));
      j.injector = std::make_unique<PlannedFaultInjector>(
          f_.planners[j.app]->plan(plan).faults);
      spec.injector = j.injector.get();
    }
    if (durable()) {
      spec.durability = wal_options(persist_dir_, persist::WalSync::kBatch,
                                    w_.snapshot_every, /*resume=*/false);
      spec.job_tag = job_dir(j.index);
    }
    submit(j, std::move(spec));
    return j;
  }

  void submit(InFlight& j, RunSpec spec) {
    ++attempted_;
    j.submit_begin = now_s();
    j.handle = f_.runtime->submit(*j.problem, std::move(spec));
    j.submit_end = now_s();
    j.traced = slice_traced(j.submit_begin);
  }

  void fail(const std::string& why) {
    ++failed_;
    if (first_error_.empty()) first_error_ = why;
  }

  // Waits for the job, checks it, records it and returns its problem
  // instance to the idle set. A durable job is then resubmitted with
  // resume=true: the read path, which must restore every task from disk.
  void finish(InFlight& j) {
    const bool ok = settle(j, /*resume=*/false);
    if (ok && durable()) {
      InFlight r;
      r.index = j.index;
      r.app = j.app;
      r.lane = j.lane;
      r.problem = std::move(j.problem);
      RunSpec spec = ft_spec();
      spec.durability = wal_options(persist_dir_, persist::WalSync::kBatch,
                                    w_.snapshot_every, /*resume=*/true);
      spec.job_tag = job_dir(j.index);
      submit(r, std::move(spec));
      settle(r, /*resume=*/true);
      j.problem = std::move(r.problem);
    }
    if (durable()) {
      std::error_code ec;
      std::filesystem::remove_all(persist_dir_ + "/" + job_dir(j.index), ec);
    }
    f_.idle[j.app].push_back(std::move(j.problem));
  }

  bool settle(InFlight& j, bool resume) {
    const JobState state = j.handle->wait();
    const double observed = now_s();
    if (state != JobState::kCompleted) {
      fail(std::string(f_.apps[j.app]) + " job " + job_state_name(state) +
           ": " + j.handle->error());
      return false;
    }
    JobRecord rec;
    rec.app = j.app;
    rec.resume = resume;
    rec.report = j.handle->runs().reports.front();
    const ExecReport& r = rec.report;
    // With one job outstanding the generator waits on this very job, so the
    // latency is the submit call to the observed terminal state, wake-up
    // included. With several, it may have been waiting on another job while
    // this one finished; there latency is what the session clocks: its clock
    // starts inside submit(), so the submit call's own duration stands in for
    // the admission step.
    const double queued = j.handle->queued_seconds();
    const double run = j.handle->run_seconds();
    rec.latency_s = w_.outstanding == 1
                        ? observed - j.submit_begin
                        : (j.submit_end - j.submit_begin) + queued + run;
    bool ok = true;
    if (durable() && !resume && r.wal_records != r.tasks_discovered) {
      fail(f_.apps[j.app] + " write journaled " +
           std::to_string(r.wal_records) + " of " +
           std::to_string(r.tasks_discovered) + " tasks");
      ok = false;
    }
    if (resume &&
        (r.computes != 0 || r.tasks_skipped_on_restart != r.tasks_discovered)) {
      fail(f_.apps[j.app] + " resume computed " + std::to_string(r.computes) +
           " and restored " + std::to_string(r.tasks_skipped_on_restart) +
           " of " + std::to_string(r.tasks_discovered) + " tasks");
      ok = false;
    }
    if (!record_) return ok;
    jobs_.push_back(rec);
    if (!resume) ++slice_jobs_[slice_traced(j.submit_begin) ? 0 : 1];
    if (j.traced) {
      const auto root = static_cast<int>(spans_.size());
      const std::uint64_t id = j.handle->id();
      const double run_begin = j.submit_end + queued;
      spans_.push_back({resume ? "resume" : "job", id, -1, j.lane,
                        j.submit_begin, j.submit_begin + rec.latency_s});
      spans_.push_back({"submit", id, root, j.lane, j.submit_begin,
                        j.submit_end});
      spans_.push_back({"queue", id, root, j.lane, j.submit_end, run_begin});
      const auto run_span = static_cast<int>(spans_.size());
      spans_.push_back({"run", id, root, j.lane, run_begin, run_begin + run});
      // ExecReport gives the engine's duration only; the span is drawn from
      // the start of the run.
      spans_.push_back({"engine", id, run_span, j.lane, run_begin,
                        run_begin + r.seconds});
    }
    return ok;
  }

  const Workload& w_;
  Fixture& f_;
  const std::uint64_t seed_;
  Xoshiro256 rng_;
  const std::string persist_dir_;
  ReplicationPolicy replication_;

  std::vector<std::size_t> order_;
  std::size_t order_pos_ = 0;
  std::uint64_t next_index_ = 0;

  bool record_ = false, trace_ = false;
  double start_ = 0.0, elapsed_ = 0.0, slice_ = 1.0;
  std::vector<JobRecord> jobs_;
  std::vector<Span> spans_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  double slice_jobs_[2] = {0.0, 0.0};
  std::string first_error_;
};

// --- the layer ladder --------------------------------------------------------

// The clean-size mix through each layer in turn, each rung adding one layer
// to the one before it, so each layer's cost is one subtraction.
enum Rung {
  kSerialRung,    // inline-backend oracle
  kBaselineRung,  // NABBIT walk, policies compiled out
  kFtRung,        // + fault-tolerance policies
  kReplRung,      // + replication sample:0.25
  kWalNoneRung,   // FT + WAL none
  kWalBatchRung,  // FT + WAL batch
  kWalEveryRung,  // FT + WAL every
  kSubmitRung,    // FT through submit + wait instead of run_sync
  kRungs
};
constexpr const char* kRungNames[kRungs] = {
    "serial",   "baseline",  "ft",        "ft_repl",
    "wal_none", "wal_batch", "wal_every", "submit"};

RunSpec rung_spec(int rung, const std::string& dir) {
  RunSpec s = ft_spec();
  auto wal = [&](persist::WalSync sync) {
    s.durability = wal_options(dir, sync, kLadderSnapshotEvery,
                               /*resume=*/false);
  };
  switch (rung) {
    case kSerialRung: s.kind = ExecutorKind::kSerial; break;
    case kBaselineRung: s.kind = ExecutorKind::kBaseline; break;
    case kReplRung:
      s.ft.replication = ReplicationPolicy::parse(kReplication);
      break;
    case kWalNoneRung: wal(persist::WalSync::kNone); break;
    case kWalBatchRung: wal(persist::WalSync::kBatch); break;
    case kWalEveryRung: wal(persist::WalSync::kEvery); break;
    default: break;  // kFtRung, kSubmitRung: the plain FT spec
  }
  return s;
}

struct Ladder {
  double ms[kRungs] = {};  // per-app median wall ms, summed over apps
  // Per app: median ExecReport::seconds of FT with replication, the
  // configuration of a `faults` job minus its faults.
  std::vector<double> repl_exec_ms;
  bool ok = true;
};

Ladder run_ladder(Runtime& runtime, const std::vector<std::string>& apps,
                  const std::string& dir, double scale, int reps) {
  Ladder out;
  auto mix = make_mix(apps, scale);
  // Repetitions interleave the rungs so that host drift spreads evenly.
  std::vector<std::vector<std::vector<double>>> wall(
      kRungs, std::vector<std::vector<double>>(mix.size()));
  std::vector<std::vector<double>> repl_exec(mix.size());
  for (int r = 0; r < reps; ++r) {
    for (int rung = 0; rung < kRungs; ++rung) {
      for (std::size_t a = 0; a < mix.size(); ++a) {
        RunSpec spec = rung_spec(rung, dir);
        const double t0 = now_s();
        JobHandle job = rung == kSubmitRung ? runtime.submit(*mix[a], spec)
                                            : runtime.run_sync(*mix[a], spec);
        const JobState state = job->wait();
        wall[rung][a].push_back((now_s() - t0) * 1e3);
        if (state != JobState::kCompleted) {
          std::fprintf(stderr, "ladder %s %s: %s: %s\n", kRungNames[rung],
                       apps[a].c_str(), job_state_name(state),
                       job->error().c_str());
          out.ok = false;
        } else if (rung == kReplRung) {
          repl_exec[a].push_back(job->runs().reports.front().seconds * 1e3);
        }
      }
    }
  }
  for (int rung = 0; rung < kRungs; ++rung)
    for (const auto& samples : wall[rung]) out.ms[rung] += median(samples);
  for (const auto& samples : repl_exec)
    out.repl_exec_ms.push_back(median(samples));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

// Median wall ms of reset_data() and result_checksum() on idle instances,
// summed over the mix.
std::pair<double, double> app_lifecycle_ms(Fixture& f, int reps) {
  double reset = 0.0, checksum = 0.0;
  for (auto& instances : f.idle) {
    TaskGraphProblem& p = *instances.front();
    std::vector<double> rs, cs;
    for (int r = 0; r < reps; ++r) {
      double t0 = now_s();
      p.reset_data();
      rs.push_back((now_s() - t0) * 1e3);
      t0 = now_s();
      (void)p.result_checksum();
      cs.push_back((now_s() - t0) * 1e3);
    }
    reset += median(rs);
    checksum += median(cs);
  }
  return {reset, checksum};
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }

  void print_table() const {
    for (const Metric& m : metrics_)
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // the window; required, see main()
  double warmup = 2.0;
  double scale = 1.0;  // multiplies every workload's own scale
  // Set-up repeats at least this often and for at least this long, so the
  // median of a fast set-up (durable, multi: ~0.1 s) rests on as much time
  // as that of a slow one.
  int min_setups = 5;
  double min_setup_seconds = 1.5;
  int ladder_reps = 5;
  // The p95 leaves at least ten samples beyond it only from 200 jobs on.
  std::size_t min_samples = 200;
  bool trace = false;
  std::string work_dir;
  unsigned threads = 1;
};

void print_provenance(const Options& o) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"commit\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %ld, "
      "\"worker_threads\": %u, \"generator_threads\": 1, \"seed\": %llu, "
      "\"window_s\": %g, \"warmup_s\": %g, \"trace\": %s}}\n",
      o.workload->name, FTDAG_BENCH_COMMIT, FTDAG_BENCH_BUILD_TYPE,
      FTDAG_BENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN), o.threads,
      (unsigned long long)o.seed, o.seconds, o.warmup,
      o.trace ? "true" : "false");
}

// Runs one workload end to end; returns the process exit code.
int run_workload(const Options& o) {
  const Workload& w = *o.workload;
  const double scale = w.scale * o.scale;
  print_provenance(o);

  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows against a steady number; the last fixture is the one used.
  std::vector<double> setup_s, build, reference, planner, runtime_ms;
  Fixture f;
  double setup_total = 0.0;
  for (int i = 0; i < o.min_setups || setup_total < o.min_setup_seconds;
       ++i) {
    f = Fixture{};  // stop the previous runtime's pool before the next starts
    f = set_up(w, scale, o.threads);
    setup_total += f.seconds;
    setup_s.push_back(f.seconds);
    build.push_back(f.build_ms);
    reference.push_back(f.reference_ms);
    planner.push_back(f.planner_ms);
    runtime_ms.push_back(f.runtime_ms);
  }

  const std::string persist_dir =
      o.work_dir + "/persist-" + std::to_string(getpid());
  Generator gen(w, f, o.seed, persist_dir + "/jobs");
  gen.run(o.warmup, /*record=*/false, /*trace=*/false);
  const SchedStats sched0 = f.runtime->pool().stats();
  const Runtime::Counters rc0 = f.runtime->counters();
  gen.run(o.seconds, /*record=*/true, o.trace);
  const SchedStats sched1 = f.runtime->pool().stats();
  const Runtime::Counters rc1 = f.runtime->counters();

  // Aggregates over the window.
  std::vector<double> latency, resume_latency, exec_ms, resume_exec_ms;
  double jobs = 0, tasks = 0, all_tasks = 0, computes = 0, reexec = 0;
  double injected = 0, caught = 0, recoveries = 0, replicated = 0;
  double mismatches = 0, resolved = 0, records = 0, wal_bytes = 0;
  double fsyncs = 0, batches = 0, ack_ns = 0, snapshots = 0;
  double resume_tasks = 0, restored = 0;
  for (const JobRecord& j : gen.jobs()) {
    const ExecReport& r = j.report;
    all_tasks += static_cast<double>(r.tasks_discovered);
    if (j.resume) {
      resume_latency.push_back(j.latency_s * 1e3);
      resume_exec_ms.push_back(r.seconds * 1e3);
      resume_tasks += static_cast<double>(r.tasks_discovered);
      restored += static_cast<double>(r.tasks_skipped_on_restart);
      continue;
    }
    latency.push_back(j.latency_s * 1e3);
    exec_ms.push_back(r.seconds * 1e3);
    jobs += 1;
    tasks += static_cast<double>(r.tasks_discovered);
    computes += static_cast<double>(r.computes);
    reexec += static_cast<double>(r.re_executed);
    injected += static_cast<double>(r.injected);
    caught += static_cast<double>(r.faults_caught);
    recoveries += static_cast<double>(r.recoveries);
    replicated += static_cast<double>(r.replicated);
    mismatches += static_cast<double>(r.digest_mismatches);
    resolved += static_cast<double>(r.votes_resolved);
    records += static_cast<double>(r.wal_records);
    wal_bytes += static_cast<double>(r.wal_bytes);
    fsyncs += static_cast<double>(r.wal_fsyncs);
    batches += static_cast<double>(r.wal_flush_batches);
    ack_ns += static_cast<double>(r.wal_ack_wait_ns);
    snapshots += static_cast<double>(r.snapshots_written);
  }

  // Self-checks: each workload must have exercised exactly the layers it is
  // meant to, so none silently measures the wrong path.
  std::vector<std::string> check_failures;
  auto check = [&](bool ok, const char* what) {
    if (!ok) check_failures.push_back(what);
  };
  check(latency.size() >= o.min_samples,
        "too few jobs in the window to resolve the p95");
  if (w.faults) {
    check(injected > 0, "faults: no fault was injected");
    check(recoveries > 0, "faults: no recovery ran");
    check(replicated > 0, "faults: no replica ran");
  } else if (w.snapshot_every == 0) {
    check(injected == 0 && replicated == 0 && records == 0,
          "fault, replication or WAL work in a workload that must have none");
  }

  Report rep;
  if (!o.trace) {
    rep.add("jobs_per_s", jobs / gen.elapsed(), "jobs/s");
    rep.add("tasks_per_s", tasks / gen.elapsed(), "tasks/s");
    rep.add("job_p50_ms", quantile(latency, 0.50), "ms");
    rep.add("job_p95_ms", quantile(latency, 0.95), "ms");
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Span-derived runtime metrics (traced slices only).
    std::vector<double> submit_us, queue_ms, session_ms;
    const std::vector<Span>& spans = gen.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      if (name == "submit") submit_us.push_back((s.end - s.begin) * 1e6);
      if (name == "queue") queue_ms.push_back((s.end - s.begin) * 1e3);
      if (name == "run") {
        const Span& engine = spans[i + 1];  // the run's only child
        session_ms.push_back(
            ((s.end - s.begin) - (engine.end - engine.begin)) * 1e3);
      }
    }
    const double steals = static_cast<double>(sched1.steals_succeeded -
                                              sched0.steals_succeeded);
    const double probes = static_cast<double>(sched1.steals_attempted -
                                              sched0.steals_attempted);
    const double pooled =
        static_cast<double>(sched1.jobs_pooled - sched0.jobs_pooled);
    const double heap =
        static_cast<double>(sched1.jobs_heap - sched0.jobs_heap);

    const Ladder lad = run_ladder(*f.runtime, f.apps, persist_dir + "/ladder",
                                  kMixScale * o.scale, o.ladder_reps);
    check(lad.ok, "ladder: a rung failed validation");
    std::vector<double> extra_ms;
    for (const JobRecord& j : gen.jobs())
      if (!j.resume && j.report.injected > 0)
        extra_ms.push_back((j.report.seconds * 1e3 - lad.repl_exec_ms[j.app]) /
                           static_cast<double>(j.report.injected));
    const auto [reset_ms, checksum_ms] = app_lifecycle_ms(f, 3);

    rep.add("runtime.submit_us_p50", median(submit_us), "us");
    rep.add("runtime.queue_ms_p50", quantile(queue_ms, 0.50), "ms");
    rep.add("runtime.queue_ms_p95", quantile(queue_ms, 0.95), "ms");
    rep.add("runtime.session_ms_p50", median(session_ms), "ms");
    rep.add("runtime.rejected",
            static_cast<double>(rc1.rejected - rc0.rejected), "count");
    rep.add("runtime.expired", static_cast<double>(rc1.expired - rc0.expired),
            "count");
    rep.add("sched.steals_per_task", ratio(steals, all_tasks), "ratio");
    rep.add("sched.steal_hit_rate", ratio(steals, probes), "ratio");
    const double rounds =
        static_cast<double>(sched1.probe_rounds - sched0.probe_rounds);
    rep.add("sched.probe_rounds_per_task", ratio(rounds, all_tasks), "ratio");
    rep.add("sched.heap_spawn_frac", ratio(heap, pooled + heap), "ratio");
    rep.add("engine.exec_ms_p50", median(exec_ms), "ms");
    rep.add("engine.computes_per_task", ratio(computes, tasks), "ratio");
    rep.add("fault.injected", ratio(injected, jobs), "count/job");
    rep.add("fault.caught", ratio(caught, jobs), "count/job");
    rep.add("fault.recoveries", ratio(recoveries, jobs), "count/job");
    rep.add("fault.reexec_per_fault", ratio(reexec, injected), "ratio");
    rep.add("fault.extra_ms_per_fault", median(extra_ms), "ms");
    rep.add("replication.replica_frac", ratio(replicated, tasks), "ratio");
    rep.add("replication.mismatches", ratio(mismatches, jobs), "count/job");
    rep.add("replication.votes_resolved", ratio(resolved, jobs), "count/job");
    rep.add("persist.records_per_job", ratio(records, jobs), "count/job");
    rep.add("persist.wal_mb_per_job", ratio(wal_bytes / 1e6, jobs), "MB/job");
    rep.add("persist.fsyncs_per_job", ratio(fsyncs, jobs), "count/job");
    rep.add("persist.records_per_fsync", ratio(records, fsyncs), "ratio");
    rep.add("persist.batches_per_job", ratio(batches, jobs), "count/job");
    rep.add("persist.ack_wait_ms_per_job", ratio(ack_ns / 1e6, jobs), "ms/job");
    rep.add("persist.snapshots_per_job", ratio(snapshots, jobs), "count/job");
    rep.add("persist.resume_ms_p50", median(resume_exec_ms), "ms");
    rep.add("persist.restored_frac", ratio(restored, resume_tasks), "ratio");
    rep.add("resume_p50_ms", median(resume_latency), "ms");
    rep.add("apps.reset_ms", reset_ms, "ms");
    rep.add("apps.checksum_ms", checksum_ms, "ms");
    rep.add("setup.build_ms", median(build), "ms");
    rep.add("setup.reference_ms", median(reference), "ms");
    rep.add("setup.planner_ms", median(planner), "ms");
    rep.add("setup.runtime_ms", median(runtime_ms), "ms");
    const double* ms = lad.ms;
    for (int rung = 0; rung < kRungs; ++rung)
      rep.add(std::string("ladder.") + kRungNames[rung] + "_ms", ms[rung],
              "ms");
    rep.add("ladder.speedup", ratio(ms[kSerialRung], ms[kBaselineRung]), "x");
    rep.add("ft.overhead_pct", overhead_pct(ms[kBaselineRung], ms[kFtRung]),
            "%");
    rep.add("replication.overhead_pct",
            overhead_pct(ms[kFtRung], ms[kReplRung]), "%");
    rep.add("persist.none_overhead_pct",
            overhead_pct(ms[kFtRung], ms[kWalNoneRung]), "%");
    rep.add("persist.batch_overhead_pct",
            overhead_pct(ms[kFtRung], ms[kWalBatchRung]), "%");
    rep.add("persist.every_overhead_pct",
            overhead_pct(ms[kFtRung], ms[kWalEveryRung]), "%");
    rep.add("runtime.dispatch_ms", ms[kSubmitRung] - ms[kFtRung], "ms");
    rep.add("trace.overhead_pct",
            (1 - ratio(gen.traced_jobs(), gen.untraced_jobs())) * 100, "%");

    const std::string trace_path =
        o.work_dir + "/bench_trace_" + w.name + ".json";
    check(write_chrome_trace(trace_path, spans), "could not write the trace");
    std::printf("wrote %s (%zu spans)\n", trace_path.c_str(), spans.size());
  }

  std::error_code ec;
  std::filesystem::remove_all(persist_dir, ec);

  std::printf("workload %s: %zu jobs in %.3f s, %llu attempted, %llu failed\n",
              w.name, latency.size(), gen.elapsed(),
              (unsigned long long)gen.attempted(),
              (unsigned long long)gen.failed());
  if (!gen.first_error().empty())
    std::printf("  first failure: %s\n", gen.first_error().c_str());
  for (const std::string& c : check_failures)
    std::printf("  self-check failed: %s\n", c.c_str());
  rep.print_table();

  const std::uint64_t failed = gen.failed() + check_failures.size();
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              (unsigned long long)std::max<std::uint64_t>(1, gen.attempted()),
              (unsigned long long)failed, rep.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string workload = cli.get_string("workload", "clean");
  const bool smoke = cli.get_bool("smoke", false);
  Options o;
  o.seed = static_cast<std::uint64_t>(cli.get_nonneg_int("seed", 1));
  // No default window: run_benchmark.py passes BENCHMARK.json's run_seconds.
  o.seconds = cli.get_double("seconds", smoke ? 1.0 : 0.0);
  o.trace = cli.get_bool("trace", smoke);
  o.work_dir = cli.get_string("work-dir", ".");
  cli.check_unknown();
  if (smoke) {  // a test of the harness, not a measurement
    o.warmup = 0.2;
    o.scale = 0.12;
    o.min_setups = 1;
    o.min_setup_seconds = 0.0;
    o.ladder_reps = 1;
    o.min_samples = 1;
  }

  if (std::string(FTDAG_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "bench_e2e was built as %s; end-to-end numbers are only "
                 "comparable from a Release build\n",
                 FTDAG_BENCH_BUILD_TYPE);
    return 2;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  o.threads = static_cast<unsigned>(nproc > 0 ? nproc : 1);
  if (!(o.seconds > 0)) {
    std::fprintf(stderr, "need --seconds > 0 (the measured window)\n");
    return 2;
  }

  // --smoke runs every workload once, traced, at a small size.
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads)
    if (smoke || workload == w.name) selected.push_back(&w);
  if (selected.empty()) {
    std::fprintf(stderr, "unknown --workload=%s (clean|faults|durable|multi)\n",
                 workload.c_str());
    return 2;
  }
  int code = 0;
  for (const Workload* w : selected) {
    o.workload = w;
    code = std::max(code, run_workload(o));
  }
  return code;
}
