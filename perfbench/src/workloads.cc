#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "harness.h"
#include "util/metrics.h"
#include "util/random.h"

namespace simgraph {
namespace perfbench {
namespace {

/// live_mixed's fixed event rate: a quarter of the measured ingest
/// ceiling (reads: kLiveReadsPerEvent per event over two connections).
constexpr double kLiveEventsPerSecond = 200.0;
constexpr int32_t kReadConnections = 2;
/// Zipf exponent of live_mixed's request users (the cache needs repeats
/// between invalidations to hit at all).
constexpr double kZipfExponent = 1.0;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Load threads wake within a few microseconds of a due time: a short
/// sleep with minimal timer slack, then a spin for the last stretch.
void SleepUntil(Clock::time_point due) {
  const Clock::duration spin = std::chrono::microseconds(30);
  if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
  }
}

void PreciseTimers() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Bytes malloc has handed out and not yet taken back, over all arenas
/// and mmapped chunks, in MB.
double LiveHeapMb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Failed operations: answers that fail a check (these also make the
/// round incorrect) and operations with a transport error. The first
/// few messages of each kind are kept for stderr.
struct Failures {
  std::mutex mu;
  std::vector<std::string> checks;
  std::vector<std::string> transport_messages;
  int64_t checks_failed = 0;
  int64_t transport = 0;
  void Check(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    ++checks_failed;
    if (checks.size() < 8) checks.push_back(message);
  }
  void Transport(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    ++transport;
    if (transport_messages.size() < 8) transport_messages.push_back(message);
  }
};

/// Publishes test[0, count) from this thread as fast as Publish accepts
/// them while a watcher waits for each in order; freshness runs from the
/// Publish call to the return of WaitForApplied (local shard + replica).
void Burst(Deployment& deployment, const std::vector<RetweetEvent>& test,
           int64_t count, bool record_freshness, RoundResult* result,
           Failures* failures) {
  if (count <= 0) return;
  std::vector<Clock::time_point> published(static_cast<size_t>(count));
  std::vector<double> freshness(static_cast<size_t>(count));
  std::vector<double> lag(static_cast<size_t>(count));
  Clock::time_point last_applied;
  serve::ShardedService& service = deployment.service();
  std::thread watcher([&] {
    for (int64_t i = 0; i < count; ++i) {
      const uint64_t seq = static_cast<uint64_t>(i) + 1;
      service.shard(0).WaitForApplied(seq);
      const Clock::time_point local = Clock::now();
      service.WaitForApplied(seq);
      last_applied = Clock::now();
      freshness[static_cast<size_t>(i)] =
          Ms(last_applied - published[static_cast<size_t>(i)]);
      lag[static_cast<size_t>(i)] = Ms(last_applied - local);
    }
  });
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < count; ++i) {
    published[static_cast<size_t>(i)] = Clock::now();
    const uint64_t seq = service.Publish(test[static_cast<size_t>(i)]);
    if (seq != static_cast<uint64_t>(i) + 1) {
      failures->Transport("publish returned seq " + std::to_string(seq));
    }
  }
  watcher.join();
  result->burst_events += count;
  result->burst_s += Seconds(last_applied - start);
  result->ingest_rates.push_back(static_cast<double>(count) /
                                 Seconds(last_applied - start));
  if (record_freshness) {
    result->freshness_p50s.push_back(Median(freshness));
    result->freshness_ms.insert(result->freshness_ms.end(),
                                freshness.begin(), freshness.end());
    result->ack_lag_ms.insert(result->ack_lag_ms.end(), lag.begin(),
                              lag.end());
  }
  result->attempted += count;
}

/// Runs the answer checks and the oracle on one answer; returns the
/// first failure ("" when it passes).
std::string CheckOne(const RunContext& context, const Answer& answer,
                     RoundResult* result) {
  ++result->answers_checked;
  std::string failure = CheckAnswer(*context.facts, answer, context.ttl);
  if (failure.empty()) {
    failure = context.oracle->Check(*context.facts, answer, context.ttl);
  }
  if (answer.cache_hit &&
      (StaleHit(*context.facts, answer) ||
       !context.oracle->Check(*context.facts, answer, 0).empty())) {
    ++result->stale_hits;
  }
  return failure;
}

void CheckOne(const RunContext& context, const Answer& answer,
              RoundResult* result, Failures* failures) {
  const std::string failure = CheckOne(context, answer, result);
  if (!failure.empty()) failures->Check(failure);
}

/// At drain: the builder's recommender, the local shard and the remote
/// replica answer every panel user identically, and those answers pass
/// the answer checks and the oracle.
void DrainChecks(const RunContext& context, Deployment& deployment,
                 uint64_t total, RoundResult* result, Failures* failures) {
  serve::ShardedService& service = deployment.service();
  service.WaitForApplied(total);
  const Inputs& inputs = *context.inputs;
  const Timestamp now =
      total > 0 ? inputs.test[static_cast<size_t>(total - 1)].time
                : inputs.protocol.split_time;
  for (const UserId user : inputs.protocol.panel) {
    Answer answer;
    answer.user = user;
    answer.now = now;
    answer.applied_seq = total;
    answer.published_seq = total;
    answer.tweets =
        service.builder_recommender()->Recommend(user, now, kTopK);
    const std::vector<ScoredTweet> shard =
        service.shard(0).recommender().Recommend(user, now, kTopK);
    const std::vector<ScoredTweet> replica =
        deployment.replica().recommender().Recommend(user, now, kTopK);
    std::string failure = CheckIdentical(answer.tweets, shard);
    if (!failure.empty()) failure = "shard vs builder: " + failure;
    if (failure.empty()) {
      failure = CheckIdentical(answer.tweets, replica);
      if (!failure.empty()) failure = "replica vs builder: " + failure;
    }
    if (failure.empty()) failure = CheckOne(context, answer, result);
    if (!failure.empty()) {
      failures->Check("user " + std::to_string(user) + ": " + failure);
    }
  }
  result->attempted += static_cast<int64_t>(inputs.protocol.panel.size());
}

void IngestFlat(const RunContext& context, Deployment& deployment,
                RoundResult* result, Failures* failures) {
  const Inputs& inputs = *context.inputs;
  const int64_t n = static_cast<int64_t>(inputs.test.size());
  Burst(deployment, inputs.test, n, /*record_freshness=*/true, result,
        failures);
  // Closed-loop pass over the panel once ingest drained: one SGRQ
  // connection, every request a first touch of the cache.
  WireClient client(deployment.port(), /*binary=*/true);
  if (!client.connected()) {
    failures->Transport("connect failed");
    return;
  }
  const Timestamp now = inputs.test.back().time;
  std::vector<double> pass_us;
  for (const UserId user : inputs.protocol.panel) {
    Answer answer;
    const Clock::time_point sent = Clock::now();
    const bool ok = client.Recommend(user, now, kTopK, &answer);
    const Clock::time_point received = Clock::now();
    ++result->attempted;
    if (!ok) {
      failures->Transport("recommend failed for user " + std::to_string(user));
      continue;
    }
    answer.published_seq = static_cast<uint64_t>(n);
    (answer.cache_hit ? result->hit_us : pass_us)
        .push_back(Micros(received - sent));
    CheckOne(context, answer, result, failures);
  }
  result->miss_p50s.push_back(Median(pass_us));
  result->miss_us.insert(result->miss_us.end(), pass_us.begin(),
                         pass_us.end());
}

void ReadScan(const RunContext& context, Deployment& deployment,
              int64_t warm, RoundResult* result, Failures* failures) {
  const Inputs& inputs = *context.inputs;
  Burst(deployment, inputs.test, warm, /*record_freshness=*/true, result,
        failures);
  const Timestamp now = inputs.test[static_cast<size_t>(warm - 1)].time;
  const std::vector<UserId>& panel = inputs.protocol.panel;

  struct Reader {
    std::vector<double> latency_us;
    std::vector<std::pair<double, double>> timed_us;  // (offset s, us)
    std::unordered_map<UserId, Answer> first;
    int64_t requests = 0;
    bool hit = false;
  };
  std::vector<Reader> readers(kReadConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(context.seconds));
  std::vector<std::thread> threads;
  for (int32_t c = 0; c < kReadConnections; ++c) {
    threads.emplace_back([&, c] {
      Reader& reader = readers[static_cast<size_t>(c)];
      Rng rng(inputs.seed * 7919 + static_cast<uint64_t>(c) + 1);
      WireClient client(deployment.port(), /*binary=*/false);
      if (!client.connected()) {
        failures->Transport("connect failed");
        return;
      }
      reader.latency_us.reserve(1 << 20);
      reader.timed_us.reserve(1 << 20);
      Answer answer;
      while (Clock::now() < deadline) {
        const UserId user =
            panel[static_cast<size_t>(rng.NextBounded(panel.size()))];
        const Clock::time_point sent = Clock::now();
        const bool ok = client.Recommend(user, now, kTopK, &answer);
        const Clock::time_point received = Clock::now();
        ++reader.requests;
        if (!ok) {
          failures->Transport("recommend failed for user " +
                              std::to_string(user));
          continue;
        }
        reader.latency_us.push_back(Micros(received - sent));
        reader.timed_us.emplace_back(Seconds(sent - start),
                                     Micros(received - sent));
        reader.hit |= answer.cache_hit;
        // Ingest is idle: a user's answer never changes during the scan.
        const auto [it, inserted] = reader.first.try_emplace(user, answer);
        if (!inserted) {
          const std::string failure =
              CheckIdentical(it->second.tweets, answer.tweets);
          if (!failure.empty()) {
            failures->Check("user " + std::to_string(user) +
                            ": repeated read differs: " + failure);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result->read_phase_s = Seconds(Clock::now() - start);
  std::vector<std::pair<double, double>> timed;
  for (const Reader& reader : readers) {
    timed.insert(timed.end(), reader.timed_us.begin(), reader.timed_us.end());
  }
  const std::vector<double> windows = WindowMedians(timed, 1.0);
  result->miss_p50s.insert(result->miss_p50s.end(), windows.begin(),
                           windows.end());
  for (Reader& reader : readers) {
    if (reader.hit) failures->Check("cache hit with the cache off");
    result->reads += reader.requests;
    result->attempted += reader.requests;
    result->miss_us.insert(result->miss_us.end(), reader.latency_us.begin(),
                           reader.latency_us.end());
    for (auto& [user, answer] : reader.first) {
      answer.published_seq = static_cast<uint64_t>(warm);
      CheckOne(context, answer, result, failures);
    }
  }

  // One deterministic pass over the panel: a hit is a served (user,
  // tweet) pair the user retweets later in the stream.
  WireClient client(deployment.port(), /*binary=*/false);
  std::vector<UserId> ordered = panel;
  std::sort(ordered.begin(), ordered.end());
  result->hits = 0;
  for (const UserId user : ordered) {
    Answer answer;
    ++result->attempted;
    if (!client.connected() || !client.Recommend(user, now, kTopK, &answer)) {
      failures->Transport("hit pass failed for user " + std::to_string(user));
      continue;
    }
    answer.published_seq = static_cast<uint64_t>(warm);
    CheckOne(context, answer, result, failures);
    for (const ScoredTweet& item : answer.tweets) {
      const uint64_t seq = context.facts->RetweetSeq(user, item.tweet);
      if (seq != kNever && seq > static_cast<uint64_t>(warm)) ++result->hits;
    }
  }
}

void LiveMixed(const RunContext& context, Deployment& deployment,
               int64_t warm, RoundResult* result, Failures* failures) {
  const Inputs& inputs = *context.inputs;
  Burst(deployment, inputs.test, warm, /*record_freshness=*/false, result,
        failures);
  const int64_t live = static_cast<int64_t>(inputs.test.size()) - warm;
  const int64_t reads = live * kLiveReadsPerEvent;
  const Clock::duration event_gap =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kLiveEventsPerSecond));
  const Clock::duration read_gap = event_gap / kLiveReadsPerEvent;
  serve::ShardedService& service = deployment.service();

  const ZipfUsers users(inputs);

  metrics::LatencyHistogram& batches =
      metrics::Registry::Global().histogram("serve.ingest.delta.batch_events");
  const int64_t batches_before = batches.count();
  std::atomic<uint64_t> published{static_cast<uint64_t>(warm)};
  std::vector<double> freshness(static_cast<size_t>(live));
  std::vector<double> lag(static_cast<size_t>(live));
  std::vector<double> event_late(static_cast<size_t>(live));
  struct Reader {
    std::vector<Answer> answers;
    std::vector<double> latency_us;
    std::vector<double> due_s;  // offset of each answered request's due time
    std::vector<double> late_us;
  };
  std::vector<Reader> readers(kReadConnections);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto event_due = [&](int64_t j) { return t0 + event_gap * j; };

  std::thread sender([&] {
    PreciseTimers();
    WireClient client(deployment.port(), /*binary=*/true);
    for (int64_t j = 0; j < live; ++j) {
      const uint64_t expected = static_cast<uint64_t>(warm + j) + 1;
      SleepUntil(event_due(j));
      event_late[static_cast<size_t>(j)] = Micros(Clock::now() - event_due(j));
      published.store(expected, std::memory_order_release);
      uint64_t seq = 0;
      if (!client.connected() ||
          !client.Publish(inputs.test[static_cast<size_t>(warm + j)], &seq) ||
          seq != expected) {
        failures->Transport("event publish failed at seq " +
                            std::to_string(expected));
      }
    }
  });
  std::thread watcher([&] {
    for (int64_t j = 0; j < live; ++j) {
      const uint64_t seq = static_cast<uint64_t>(warm + j) + 1;
      service.shard(0).WaitForApplied(seq);
      const Clock::time_point local = Clock::now();
      service.WaitForApplied(seq);
      const Clock::time_point applied = Clock::now();
      freshness[static_cast<size_t>(j)] = Ms(applied - event_due(j));
      lag[static_cast<size_t>(j)] = Ms(applied - local);
    }
  });
  std::vector<std::thread> threads;
  for (int32_t c = 0; c < kReadConnections; ++c) {
    threads.emplace_back([&, c] {
      PreciseTimers();
      Reader& reader = readers[static_cast<size_t>(c)];
      Rng rng(inputs.seed * 7919 + static_cast<uint64_t>(c) + 101);
      WireClient client(deployment.port(), /*binary=*/true);
      reader.answers.reserve(static_cast<size_t>(reads / kReadConnections));
      for (int64_t m = c; m < reads; m += kReadConnections) {
        const UserId user = users.Draw(rng.NextDouble());
        // The stream clock of the schedule: the latest event due by now.
        const Timestamp now =
            inputs.test[static_cast<size_t>(warm + m / kLiveReadsPerEvent)].time;
        const Clock::time_point due = t0 + read_gap * m;
        SleepUntil(due);
        const Clock::time_point sent = Clock::now();
        Answer answer;
        const bool ok = client.connected() &&
                        client.Recommend(user, now, kTopK, &answer);
        const Clock::time_point received = Clock::now();
        answer.published_seq = published.load(std::memory_order_acquire);
        if (!ok) {
          failures->Transport("recommend failed for user " +
                              std::to_string(user));
          continue;
        }
        reader.late_us.push_back(Micros(sent - due));
        reader.latency_us.push_back(Micros(received - due));
        reader.due_s.push_back(Seconds(due - t0));
        reader.answers.push_back(std::move(answer));
      }
    });
  }
  sender.join();
  watcher.join();
  for (std::thread& t : threads) t.join();

  result->freshness_ms.insert(result->freshness_ms.end(), freshness.begin(),
                              freshness.end());
  std::vector<std::pair<double, double>> timed;
  for (int64_t j = 0; j < live; ++j) {
    timed.emplace_back(Seconds(event_gap * j),
                       freshness[static_cast<size_t>(j)]);
  }
  std::vector<double> windows = WindowMedians(timed, 1.0);
  result->freshness_p50s.insert(result->freshness_p50s.end(), windows.begin(),
                                windows.end());
  result->ack_lag_ms.insert(result->ack_lag_ms.end(), lag.begin(), lag.end());
  result->late_us.insert(result->late_us.end(), event_late.begin(),
                         event_late.end());
  service.WaitForApplied(static_cast<uint64_t>(warm + live));
  result->counted_batches =
      static_cast<double>(batches.count() - batches_before);
  result->batched_events = static_cast<double>(live);
  result->attempted += live + reads;
  result->reads += reads;
  result->read_phase_s = Seconds(event_gap * live);
  timed.clear();
  for (Reader& reader : readers) {
    result->late_us.insert(result->late_us.end(), reader.late_us.begin(),
                           reader.late_us.end());
    for (size_t i = 0; i < reader.answers.size(); ++i) {
      const Answer& answer = reader.answers[i];
      (answer.cache_hit ? result->hit_us : result->miss_us)
          .push_back(reader.latency_us[i]);
      if (!answer.cache_hit) {
        timed.emplace_back(reader.due_s[i], reader.latency_us[i]);
      }
      CheckOne(context, answer, result, failures);
    }
  }
  windows = WindowMedians(timed, 1.0);
  result->miss_p50s.insert(result->miss_p50s.end(), windows.begin(),
                           windows.end());
}

/// Median wire reply time minus in-process time over the same requests,
/// protocol as the workload speaks it. With the cache on both sides
/// time a hit (an untimed call stores the answer first).
double TcpOverhead(const RunContext& context, Deployment& deployment,
                   bool binary, Timestamp now) {
  WireClient client(deployment.port(), binary);
  std::vector<double> gaps;
  const std::vector<UserId>& panel = context.inputs->protocol.panel;
  for (size_t i = 0; i < panel.size() && i < 400; ++i) {
    const serve::RecommendRequest request{panel[i], now, kTopK};
    if (context.ttl >= 0) deployment.service().Recommend(request);
    const Clock::time_point a = Clock::now();
    deployment.service().Recommend(request);
    const Clock::time_point b = Clock::now();
    Answer answer;
    if (!client.connected() ||
        !client.Recommend(request.user, now, kTopK, &answer)) {
      return 0.0;
    }
    gaps.push_back(Micros(Clock::now() - b) - Micros(b - a));
  }
  return Median(gaps);
}

}  // namespace

ZipfUsers::ZipfUsers(const Inputs& inputs) : users(inputs.protocol.panel) {
  Rng shuffle(inputs.seed * 104729 + 17);
  for (size_t i = users.size(); i > 1; --i) {
    std::swap(users[i - 1],
              users[static_cast<size_t>(shuffle.NextBounded(i))]);
  }
  cdf.resize(users.size());
  double sum = 0;
  for (size_t i = 0; i < users.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
}

UserId ZipfUsers::Draw(double uniform) const {
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), uniform) - cdf.begin());
  return users[std::min(i, users.size() - 1)];
}

Timestamp WorkloadTtl(const std::string& workload) {
  return workload == "read_scan" ? -1 : kSecondsPerDay;
}

int64_t WarmEvents(const std::string& workload, const Inputs& inputs,
                   double seconds) {
  const int64_t n = static_cast<int64_t>(inputs.test.size());
  if (workload == "ingest_flat") return n;
  if (workload == "read_scan") return n / 2;
  const int64_t live = std::min<int64_t>(
      std::llround(kLiveEventsPerSecond * seconds), n - n / 4);
  return n - live;
}

RoundResult TrialBurst(const Inputs& inputs, Deployment& deployment,
                       int64_t count) {
  RoundResult result;
  Failures failures;
  Burst(deployment, inputs.test, count, /*record_freshness=*/false, &result,
        &failures);
  result.failed = failures.transport;
  for (const std::string& message : failures.transport_messages) {
    std::fprintf(stderr, "failed operation: %s\n", message.c_str());
  }
  return result;
}

RoundResult RunRound(const RunContext& context, const std::string& workload) {
  RoundResult result;
  Failures failures;
  Deployment::SetupTimes times;
  {
    auto owned = std::make_unique<Deployment>(
        *context.inputs, WorkloadTtl(workload), &times,
        context.trace_round ? &result.batches : nullptr);
    Deployment& deployment = *owned;
    result.setup_s = times.total_s;
    result.replica_bootstrap_s = times.replica_s;
    metrics::Registry& registry = metrics::Registry::Global();
    registry.Reset();
    const int64_t warm = WarmEvents(workload, *context.inputs, context.seconds);
    if (workload == "ingest_flat") {
      IngestFlat(context, deployment, &result, &failures);
    } else if (workload == "read_scan") {
      ReadScan(context, deployment, warm, &result, &failures);
    } else {
      LiveMixed(context, deployment, warm, &result, &failures);
    }
    const uint64_t total = workload == "ingest_flat" || workload == "live_mixed"
                               ? context.inputs->test.size()
                               : static_cast<uint64_t>(warm);
    DrainChecks(context, deployment, total, &result, &failures);
    if (context.trace_round && total > 0) {
      result.tcp_overhead_us = TcpOverhead(
          context, deployment, /*binary=*/workload != "read_scan",
          context.inputs->test[static_cast<size_t>(total - 1)].time);
    }
    result.counted_deposits =
        registry.histogram("serve.ingest.delta.deposits").sum();
    result.counted_edges = registry.histogram("serve.ingest.delta.edges").sum();
    if (workload != "live_mixed") {
      result.counted_batches = static_cast<double>(
          registry.histogram("serve.ingest.delta.batch_events").count());
      result.batched_events = static_cast<double>(total);
    }
    result.counted_replication_bytes = static_cast<double>(
        registry.counter("serve.replication.bytes_sent").value());
    result.counted_updates =
        static_cast<double>(registry.counter("propagation.updates").value());
    // What the deployment holds at drain is what its teardown returns;
    // the benchmark's own data lives on across it.
    const double held = LiveHeapMb();
    owned.reset();
    result.deployment_heap_mb = held - LiveHeapMb();
  }
  result.failed = failures.transport + failures.checks_failed;
  result.failures = std::move(failures.checks);
  for (const std::string& message : failures.transport_messages) {
    std::fprintf(stderr, "failed operation: %s\n", message.c_str());
  }
  return result;
}

}  // namespace perfbench
}  // namespace simgraph
