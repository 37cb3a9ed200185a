// Shared declarations of the serving benchmark (see ../README.md).
//
// The benchmark drives the default simgraph_served deployment — one
// delta-shipping shard, TTL 86,400 s, a snapshot refresh every 2,000
// events, the TCP front-end and one remote replica attached over
// loopback SGRP — from one process, and checks every answer it is
// given against properties computed from the input stream.
#ifndef SIMGRAPH_PERFBENCH_HARNESS_H_
#define SIMGRAPH_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/recommender.h"
#include "core/simgraph.h"
#include "dataset/dataset.h"
#include "eval/protocol.h"
#include "serve/replication_client.h"
#include "serve/replication_fanout.h"
#include "serve/service.h"
#include "serve/sharded_service.h"
#include "serve/tcp_server.h"

namespace simgraph {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Quantile q in [0, 1] of `values` (linear interpolation between order
/// statistics); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Median of each `window_s`-long window of (offset seconds, value)
/// samples, in window order; windows with no sample are skipped.
std::vector<double> WindowMedians(
    const std::vector<std::pair<double, double>>& samples, double window_s);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Deployment constants: the documented default of simgraph_served
/// (docs/serving.md) and the list size every request asks for.
inline constexpr int64_t kRefreshEvents = 2000;
inline constexpr int32_t kTopK = 30;
inline constexpr Timestamp kFreshnessWindow = 72 * kSecondsPerHour;

/// live_mixed reads per event slot (1,000 reads/s at 200 events/s). At
/// ten the generator fell up to 10 ms behind at p99 on a 4-core box and
/// freshness p50 split between ~2.8 and ~5.5 ms from run to run: not a
/// load the deployment sustains there.
inline constexpr int64_t kLiveReadsPerEvent = 5;

/// Sequence numbers are 1-based; this marks "never" in stream facts.
inline constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

/// The inputs of one run. The dataset is the bench::BenchConfig one
/// (toy-sized for the self-test); `--seed` draws the panel and all
/// traffic.
struct Inputs {
  Dataset dataset;
  EvalProtocol protocol;
  int64_t train_end = 0;
  /// Test stream: test[i] is published with sequence number i + 1.
  std::vector<RetweetEvent> test;
  uint64_t seed = 0;
  bool toy = false;
};
Inputs MakeInputs(uint64_t seed, bool toy);

/// Facts about the input stream that every answer is checked against.
class StreamFacts {
 public:
  explicit StreamFacts(const Inputs& inputs);

  /// Sequence at which `user` retweeted `tweet`: 0 for a training
  /// retweet, kNever when the stream has no such retweet.
  uint64_t RetweetSeq(UserId user, TweetId tweet) const;
  /// Sequence of the tweet's first test-period retweet (kNever if none).
  uint64_t FirstTestSeq(TweetId tweet) const {
    return first_test_seq_[static_cast<size_t>(tweet)];
  }
  UserId Author(TweetId tweet) const {
    return tweets_[static_cast<size_t>(tweet)].author;
  }
  Timestamp TweetTime(TweetId tweet) const {
    return tweets_[static_cast<size_t>(tweet)].time;
  }
  int64_t num_tweets() const { return static_cast<int64_t>(tweets_.size()); }
  /// True when `user` has consumed `tweet` once events 1..seq applied.
  bool Consumed(UserId user, TweetId tweet, uint64_t seq) const {
    return Author(tweet) == user || RetweetSeq(user, tweet) <= seq;
  }

 private:
  uint64_t Key(UserId user, TweetId tweet) const {
    return static_cast<uint64_t>(user) * static_cast<uint64_t>(tweets_.size()) +
           static_cast<uint64_t>(tweet);
  }
  std::vector<Tweet> tweets_;
  std::vector<uint64_t> first_test_seq_;
  std::unordered_map<uint64_t, uint64_t> retweet_seq_;
};

/// One answer as the client received it.
struct Answer {
  UserId user = 0;
  Timestamp now = 0;
  int32_t k = kTopK;
  /// Reported applied sequence: every event up to here is reflected.
  uint64_t applied_seq = 0;
  /// Events published before the reply arrived: the answer reflects no
  /// event past here (events applied during the scan may show).
  uint64_t published_seq = 0;
  bool cache_hit = false;
  std::vector<ScoredTweet> tweets;
};

/// The answer checks: at most k distinct tweets, ordered by score
/// descending with ties by ascending id, scores in (0, 1], nothing the
/// user authored or retweeted within the applied prefix, every tweet
/// posted within 72 h before `now` and retweeted at least once in the
/// applied test prefix. Returns "" when the answer passes.
///
/// A cache hit is the answer computed at some earlier `now` within the
/// cache TTL (docs/serving.md), so its tweets are held to 72 h plus
/// `hit_ttl`; StaleHit counts the hits that break the plain 72 h rule.
std::string CheckAnswer(const StreamFacts& facts, const Answer& answer,
                        Timestamp hit_ttl);

/// True for a cache hit that carries a tweet posted more than 72 h
/// before the request's `now` (the other half of a stale hit, a fresh
/// tweet left out, is Oracle::Check with no TTL allowance).
bool StaleHit(const StreamFacts& facts, const Answer& answer);

/// Element-wise, bit-exact equality of two answers ("" when equal).
std::string CheckIdentical(const std::vector<ScoredTweet>& expected,
                           const std::vector<ScoredTweet>& actual);

/// Independent score oracle. For every test retweet before the first
/// snapshot refresh, recomputes each user's score with the test-suite
/// ReferencePropagate over the post-Train snapshot (seeds carried as
/// SimGraphServingRecommender::Train carries them); a user's expected
/// score for a tweet is the maximum over the tweet's applied retweets.
/// A tweet is covered for an answer while none of its retweets the
/// answer may reflect came after the refresh.
class Oracle {
 public:
  Oracle(const Inputs& inputs, const SimGraph& train_snapshot,
         int64_t refresh_events);

  /// Served scores of oracle tweets must equal the oracle's, and no
  /// fresh, unconsumed oracle tweet may score above the k-th answer
  /// while left out. A cache hit may have been computed at any `now`
  /// within `hit_ttl` before the request's, so it is only required to
  /// hold the tweets posted before that whole window. Returns "" when
  /// the answer passes.
  std::string Check(const StreamFacts& facts, const Answer& answer,
                    Timestamp hit_ttl) const;

  /// Tweets retweeted before the refresh, and those of them never
  /// retweeted after it (covered for every answer).
  int64_t num_tweets() const { return static_cast<int64_t>(tweets_.size()); }
  int64_t num_fully_covered() const { return fully_covered_; }
  int64_t num_propagations() const { return propagations_; }
  /// True when the oracle knows `tweet`'s score in an answer reflecting
  /// at most events 1..seq.
  bool Covers(TweetId tweet, uint64_t seq) const {
    return tweets_.count(tweet) > 0 &&
           first_after_refresh_[static_cast<size_t>(tweet)] > seq;
  }

 private:
  struct Entry {
    TweetId tweet = 0;
    uint64_t seq = 0;
    double score = 0.0;
  };
  /// Expected score of (user, tweet) once events 1..seq applied; 0 when
  /// none of the tweet's propagations reached the user by then.
  static double ExpectedAt(const std::vector<Entry>& entries, size_t begin,
                           size_t end, uint64_t seq);

  std::unordered_set<TweetId> tweets_;
  /// Per tweet: its first test retweet at or after the refresh.
  std::vector<uint64_t> first_after_refresh_;
  int64_t fully_covered_ = 0;
  /// Per user: entries sorted by (tweet, seq).
  std::vector<std::vector<Entry>> by_user_;
  int64_t propagations_ = 0;
};

/// The deployment under test, wired as tools/simgraph_served wires it
/// plus one remote replica attached over loopback SGRP.
class Deployment {
 public:
  struct SetupTimes {
    double total_s = 0;    // dataset -> ready, the setup_s sample
    double train_s = 0;    // ShardedService::Train
    double replica_s = 0;  // replica handshake, train, start, registered
  };

  /// Builds, trains and starts everything; `ttl` < 0 disables the cache.
  /// With `batches` set, the (seq_begin, seq_end) of every delta the
  /// DeltaBuilder finalises is appended there (on the builder thread).
  Deployment(const Inputs& inputs, Timestamp ttl, SetupTimes* times,
             std::vector<std::pair<uint64_t, uint64_t>>* batches = nullptr);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  serve::ShardedService& service() { return *service_; }
  serve::RecommendationService& replica() { return *replica_service_; }
  serve::ReplicationFanout& fanout() { return *fanout_; }
  uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<serve::ReplicationFanout> fanout_;
  std::unique_ptr<serve::ShardedService> service_;
  std::unique_ptr<serve::TcpServer> server_;
  std::unique_ptr<serve::ReplicationClient> client_;
  std::unique_ptr<serve::RecommendationService> replica_service_;
};

/// Blocking loopback client of the serving front-end, speaking NDJSON
/// or SGRQ (events: SGRQ only). Every call returns false on a transport
/// or protocol error.
class WireClient {
 public:
  WireClient(uint16_t port, bool binary);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const { return connected_; }
  bool Recommend(UserId user, Timestamp now, int32_t k, Answer* answer);
  bool Publish(const RetweetEvent& event, uint64_t* seq);

 private:
  bool SendAll(const std::string& bytes);
  bool ReadLine(std::string* line);

  int fd_ = -1;
  bool binary_ = false;
  bool connected_ = false;
  std::string out_;
  std::string in_;
  std::string payload_;
};

/// What one round of a workload measured.
struct RoundResult {
  double setup_s = 0;
  double replica_bootstrap_s = 0;
  /// Live heap the round's deployment held at drain: released when it
  /// was torn down (0 for a trial burst).
  double deployment_heap_mb = 0;
  int64_t burst_events = 0;
  double burst_s = 0;
  /// Robust per-run figures are medians over these: one ingest rate per
  /// burst, and the p50 of every measurement window (a burst, a panel
  /// pass, or one second of a timed phase).
  std::vector<double> ingest_rates;
  /// Pooled over rounds only: each round's deployment_heap_mb.
  std::vector<double> deployment_heaps_mb;
  std::vector<double> freshness_p50s;
  std::vector<double> miss_p50s;
  std::vector<double> freshness_ms;
  std::vector<double> ack_lag_ms;
  std::vector<double> miss_us;
  std::vector<double> hit_us;
  std::vector<double> late_us;
  double read_phase_s = 0;
  int64_t reads = 0;
  int64_t hits = -1;  // read_scan's panel pass; -1 elsewhere
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Distinct users whose deltas carried them, summed over events — the
  /// service's own work counters, read from its metrics registry when
  /// the round ran with metrics on.
  double counted_deposits = 0;
  double counted_edges = 0;
  double counted_updates = 0;
  /// Deltas built, and the events they covered, over the round's timed
  /// events (live_mixed: the paced phase only).
  double counted_batches = 0;
  double batched_events = 0;
  double counted_replication_bytes = 0;
  /// First check failures (empty when every answer passed).
  std::vector<std::string> failures;
  int64_t answers_checked = 0;
  int64_t stale_hits = 0;
  /// Trace rounds only: median wire reply time minus in-process time for
  /// the same requests (serve.tcp_server.overhead_us), and the
  /// (seq_begin, seq_end) of every delta the service built, in order.
  double tcp_overhead_us = 0;
  std::vector<std::pair<uint64_t, uint64_t>> batches;
};

/// Shared, run-wide state every round reads.
struct RunContext {
  const Inputs* inputs = nullptr;
  const StreamFacts* facts = nullptr;
  const Oracle* oracle = nullptr;
  double seconds = 10;
  /// Cache TTL of the workload's deployment (-1: cache off).
  Timestamp ttl = -1;
  /// The round that feeds the traced run: record the service's delta
  /// batches, and time wire vs in-process replies after the drain checks.
  bool trace_round = false;
};

/// Workload names in the order BENCHMARK.json lists them.
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest_flat", "read_scan",
                                                 "live_mixed"};
  return names;
}

/// Cache TTL the workload deploys with (read_scan turns the cache off).
Timestamp WorkloadTtl(const std::string& workload);

/// Number of leading test events a workload replays as a burst before
/// its main phase (all of them for ingest_flat).
int64_t WarmEvents(const std::string& workload, const Inputs& inputs,
                   double seconds);

/// live_mixed's request users: Zipf over a seeded permutation of the
/// panel (the cache needs repeats between invalidations to hit at all).
struct ZipfUsers {
  explicit ZipfUsers(const Inputs& inputs);
  UserId Draw(double uniform) const;
  std::vector<UserId> users;
  std::vector<double> cdf;
};

/// Runs one round of `workload` on a fresh deployment.
RoundResult RunRound(const RunContext& context, const std::string& workload);

/// Publishes test events 1..count into a started deployment as fast as
/// Publish accepts them, as a round's burst does; returns the burst's
/// ingest rate, attempted and failed operations.
RoundResult TrialBurst(const Inputs& inputs, Deployment& deployment,
                       int64_t count);

/// The single-threaded traced replay of a workload's operations through
/// the public layer functions; returns the per-layer metrics by name
/// (value, unit) and appends any cross-check failure to `failures`.
std::map<std::string, std::pair<double, std::string>> TracedRun(
    const RunContext& context, const std::string& workload,
    const RoundResult& service_round, std::vector<std::string>* failures);

/// Planted-fault self-test of every check; returns the failures.
std::vector<std::string> SelfTestChecks(const RunContext& context);

}  // namespace perfbench
}  // namespace simgraph

#endif  // SIMGRAPH_PERFBENCH_HARNESS_H_
