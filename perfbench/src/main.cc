// simgraph_perfbench — the serving benchmark (see ../README.md).
//
//   simgraph_perfbench --workload ingest_flat|read_scan|live_mixed
//                      --seed N --seconds S --trace 0|1
//   simgraph_perfbench --selftest
//
// Prints one "metric <name> <value> <unit>" line per measured quantity,
// then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics of the traced replay with --trace 1.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "harness.h"
#include "util/metrics.h"

namespace simgraph {
namespace perfbench {
namespace {

/// Trial deployments per run on top of each round's own: each is set up
/// and runs the workload's burst, so the reported setup_s and
/// ingest_events_per_s are medians of several.
constexpr int kSetupTrials = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = std::stoi(value);
    } else {
      return false;
    }
  }
  if (args->selftest) return true;
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args->workload;
  return known && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

void Print(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %s %.6f %s\n", name.c_str(), value, unit.c_str());
}

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const MetricMap& metrics) {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << value.first << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

/// Everything a run measured, folded over its rounds.
struct RunTotals {
  std::vector<double> setup_s;
  RoundResult pooled;
};

void Fold(const RoundResult& round, RunTotals* totals) {
  RoundResult& p = totals->pooled;
  totals->setup_s.push_back(round.setup_s);
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  p.burst_events += round.burst_events;
  p.burst_s += round.burst_s;
  append(&p.ingest_rates, round.ingest_rates);
  if (round.deployment_heap_mb > 0) {
    p.deployment_heaps_mb.push_back(round.deployment_heap_mb);
  }
  append(&p.freshness_p50s, round.freshness_p50s);
  append(&p.miss_p50s, round.miss_p50s);
  append(&p.freshness_ms, round.freshness_ms);
  append(&p.ack_lag_ms, round.ack_lag_ms);
  append(&p.miss_us, round.miss_us);
  append(&p.hit_us, round.hit_us);
  append(&p.late_us, round.late_us);
  p.read_phase_s += round.read_phase_s;
  p.reads += round.reads;
  p.hits = round.hits;
  p.attempted += round.attempted;
  p.failed += round.failed;
  p.answers_checked += round.answers_checked;
  p.stale_hits += round.stale_hits;
  for (const std::string& f : round.failures) {
    if (p.failures.size() < 16) p.failures.push_back(f);
  }
}

MetricMap EndToEnd(const RunTotals& totals) {
  const RoundResult& p = totals.pooled;
  MetricMap m;
  m["setup_s"] = {Median(totals.setup_s), "s"};
  m["deployment_heap_mb"] = {Median(p.deployment_heaps_mb), "MB"};
  m["ingest_events_per_s"] = {Median(p.ingest_rates), "1/s"};
  return m;
}

/// Figures printed beside the bounded end-to-end set: the latencies and
/// tails whose run-to-run spread on a shared 4-vCPU box exceeds any
/// bound (README.md), and the workload-specific ones.
MetricMap Details(const std::string& workload, const RunTotals& totals) {
  const RoundResult& p = totals.pooled;
  MetricMap m;
  m["setups"] = {static_cast<double>(totals.setup_s.size()), "count"};
  m["answers_checked"] = {static_cast<double>(p.answers_checked), "count"};
  m["ack_lag_p50_ms"] = {Quantile(p.ack_lag_ms, 0.5), "ms"};
  m["request_miss_count"] = {static_cast<double>(p.miss_us.size()), "count"};
  m["freshness_p50_ms"] = {Median(p.freshness_p50s), "ms"};
  m["request_miss_p50_us"] = {Median(p.miss_p50s), "us"};
  m["freshness_p90_ms"] = {Quantile(p.freshness_ms, 0.9), "ms"};
  m["freshness_p99_ms"] = {Quantile(p.freshness_ms, 0.99), "ms"};
  m["request_miss_p90_us"] = {Quantile(p.miss_us, 0.9), "us"};
  m["request_miss_p99_us"] = {Quantile(p.miss_us, 0.99), "us"};
  if (workload == "read_scan") {
    m["read_per_s"] = {static_cast<double>(p.reads) / p.read_phase_s, "1/s"};
    m["read_p50_us"] = {Median(p.miss_p50s), "us"};
    m["read_p99_us"] = {Quantile(p.miss_us, 0.99), "us"};
    m["hits"] = {static_cast<double>(p.hits), "count"};
  }
  if (workload == "live_mixed") {
    const double total = static_cast<double>(p.hit_us.size() + p.miss_us.size());
    m["request_hit_p50_us"] = {Quantile(p.hit_us, 0.5), "us"};
    m["hit_share"] = {static_cast<double>(p.hit_us.size()) / total, "ratio"};
    m["bench.generator.late_p99_us"] = {Quantile(p.late_us, 0.99), "us"};
    m["stale_hits"] = {static_cast<double>(p.stale_hits), "count"};
    m["stale_hit_share"] = {
        static_cast<double>(p.stale_hits) /
            static_cast<double>(std::max<size_t>(1, p.hit_us.size())),
        "ratio"};
  }
  return m;
}

/// A run's fixed inputs and the checks built from them.
struct Prepared {
  explicit Prepared(Inputs in) : inputs(std::move(in)), facts(inputs) {}
  Inputs inputs;
  StreamFacts facts;
  std::unique_ptr<Oracle> oracle;
  /// One per trial deployment: its set-up time and its burst.
  std::vector<RoundResult> trials;
};

/// Generates the inputs, runs the trial deployments and builds the
/// oracle over the first trial's post-Train snapshot.
std::unique_ptr<Prepared> Prepare(const Args& args, bool toy,
                                  const std::function<void(const char*)>& progress) {
  auto prepared = std::make_unique<Prepared>(MakeInputs(args.seed, toy));
  progress("inputs generated");
  std::shared_ptr<const SimGraph> train_snapshot;
  const int64_t burst =
      WarmEvents(args.workload, prepared->inputs, args.seconds);
  for (int i = 0; i < kSetupTrials; ++i) {
    Deployment::SetupTimes times;
    Deployment deployment(prepared->inputs, WorkloadTtl(args.workload), &times);
    if (train_snapshot == nullptr) {
      train_snapshot =
          deployment.service().builder_recommender()->GraphSnapshot();
    }
    RoundResult trial = TrialBurst(prepared->inputs, deployment, burst);
    trial.setup_s = times.total_s;
    prepared->trials.push_back(std::move(trial));
  }
  progress("trial deployments done");
  prepared->oracle = std::make_unique<Oracle>(prepared->inputs,
                                              *train_snapshot, kRefreshEvents);
  progress("oracle built");
  const std::vector<RetweetEvent>& test = prepared->inputs.test;
  std::unordered_set<TweetId> distinct;
  int64_t repeats = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    distinct.insert(test[i].tweet);
    for (size_t j = i > 15 ? i - 15 : 0; j < i; ++j) {
      if (test[j].tweet == test[i].tweet) {
        ++repeats;
        break;
      }
    }
  }
  std::printf("inputs: %zu test events over %zu distinct tweets, %.1f%% "
              "repeating a tweet of the 15 events before; %zu panel users; "
              "oracle %lld tweets, %lld of them never retweeted after the "
              "first refresh (%lld propagations)\n",
              test.size(), distinct.size(),
              100.0 * static_cast<double>(repeats) /
                  static_cast<double>(test.size()),
              prepared->inputs.protocol.panel.size(),
              static_cast<long long>(prepared->oracle->num_tweets()),
              static_cast<long long>(prepared->oracle->num_fully_covered()),
              static_cast<long long>(prepared->oracle->num_propagations()));
  return prepared;
}

/// Runs one workload and prints its metrics; `correct` receives the
/// verdict of every check. Returns 0 only when every check passed.
int RunWorkload(const Args& args, bool toy, bool* correct) {
  const Clock::time_point begin = Clock::now();
  const auto progress = [&](const char* what) {
    std::fprintf(stderr, "[%7.2f s] %s\n", Seconds(Clock::now() - begin),
                 what);
  };
  const std::unique_ptr<Prepared> prepared = Prepare(args, toy, progress);
  const Inputs& inputs = prepared->inputs;
  RunTotals totals;
  for (const RoundResult& trial : prepared->trials) Fold(trial, &totals);

  RunContext context;
  context.inputs = &inputs;
  context.facts = &prepared->facts;
  context.oracle = prepared->oracle.get();
  context.seconds = args.seconds;
  context.ttl = WorkloadTtl(args.workload);

  if (args.trace == 1) {
    context.trace_round = true;
    metrics::SetEnabled(true);
    const RoundResult round = RunRound(context, args.workload);
    metrics::SetEnabled(false);
    std::vector<std::string> failures = round.failures;
    const MetricMap layers =
        TracedRun(context, args.workload, round, &failures);
    for (const auto& [name, value] : layers) {
      Print(name, value.first, value.second);
    }
    for (const std::string& f : failures) {
      std::fprintf(stderr, "FAIL %s\n", f.c_str());
    }
    *correct = failures.empty();
    std::printf("%s\n", Json(*correct, round.attempted, round.failed, layers)
                            .c_str());
    return *correct ? 0 : 1;
  }

  // Whole rounds until the timed phases cover --seconds: ingest_flat's
  // bursts, the other workloads' main phases, whose length follows from
  // --seconds alone — so their round count never depends on the timing.
  double measured = 0;
  do {
    const RoundResult round = RunRound(context, args.workload);
    Fold(round, &totals);
    progress("round done");
    measured += args.workload == "ingest_flat" ? round.burst_s
                                               : round.read_phase_s;
  } while (measured < args.seconds);

  const MetricMap e2e = EndToEnd(totals);
  for (const auto& [name, value] : Details(args.workload, totals)) {
    Print(name, value.first, value.second);
  }
  for (const auto& [name, value] : e2e) Print(name, value.first, value.second);
  for (const std::string& f : totals.pooled.failures) {
    std::fprintf(stderr, "FAIL %s\n", f.c_str());
  }
  *correct = totals.pooled.failures.empty();
  std::printf("%s\n", Json(*correct, totals.pooled.attempted,
                           totals.pooled.failed, e2e)
                          .c_str());
  return *correct ? 0 : 1;
}

/// Toy-size run of every workload, then every check against its
/// planted fault. Exits non-zero unless all runs are correct and every
/// fault is rejected.
int SelfTest() {
  bool all = true;
  for (const std::string& workload : WorkloadNames()) {
    Args args;
    args.workload = workload;
    args.seconds = 2;
    std::printf("selftest: toy %s\n", workload.c_str());
    std::fflush(stdout);
    bool correct = false;
    all &= RunWorkload(args, /*toy=*/true, &correct) == 0 && correct;
    std::printf("selftest: toy %s %s\n", workload.c_str(),
                correct ? "correct" : "INCORRECT");
  }
  Args args;
  args.workload = "ingest_flat";
  const std::unique_ptr<Prepared> prepared =
      Prepare(args, /*toy=*/true, [](const char*) {});
  RunContext context;
  context.inputs = &prepared->inputs;
  context.facts = &prepared->facts;
  context.oracle = prepared->oracle.get();
  for (const std::string& f : SelfTestChecks(context)) {
    std::printf("selftest: FAIL %s\n", f.c_str());
    all = false;
  }
  std::printf("selftest: %s\n", all ? "PASS" : "FAIL");
  return all ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace simgraph

int main(int argc, char** argv) {
  using namespace simgraph::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simgraph_perfbench --workload ingest_flat|read_scan|"
                 "live_mixed --seed N --seconds S --trace 0|1 | --selftest\n");
    return 2;
  }
  try {
    bool correct = false;
    return args.selftest ? SelfTest()
                         : RunWorkload(args, /*toy=*/false, &correct);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
