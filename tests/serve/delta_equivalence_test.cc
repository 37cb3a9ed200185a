#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simgraph_delta.h"
#include "core/simgraph_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/delta_applier.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

// Every stored candidate of `user` as (tweet, score), sorted by tweet:
// the store's own iteration order is unspecified.
std::vector<std::pair<TweetId, double>> SortedCandidates(
    const CandidateStore& store, UserId user) {
  std::vector<std::pair<TweetId, double>> entries;
  store.ForEachCandidate(user, [&](TweetId tweet, double score) {
    entries.emplace_back(tweet, score);
    return true;
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

std::unique_ptr<ServingRecommender> MakeReplicatedSimGraph(
    const ServingSimGraphOptions& options) {
  return std::make_unique<SimGraphServingRecommender>(options);
}

class DeltaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60809;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    num_test_ = dataset_.num_retweets() - protocol_.train_end;
    ASSERT_GT(num_test_, 10);
    sample_.assign(protocol_.panel.begin(),
                   protocol_.panel.begin() +
                       std::min<size_t>(protocol_.panel.size(), 48));
  }

  const RetweetEvent& TestEvent(int64_t i) const {
    return dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
  }

  static void ExpectBitIdentical(const std::vector<ScoredTweet>& actual,
                                 const std::vector<ScoredTweet>& expected,
                                 UserId user) {
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].tweet, expected[j].tweet) << "user " << user;
      // Exact equality, not near-equality: the applier replays the very
      // doubles the builder computed, so the answers must be
      // bit-identical, never merely close.
      EXPECT_EQ(actual[j].score, expected[j].score) << "user " << user;
    }
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::vector<UserId> sample_;
  int64_t num_test_ = 0;
};

// The delta-shipping anchor: while reader threads hammer all shards,
// the test stream goes through the builder pipeline; at several
// checkpoints every sampled user's answer — served by a
// DeltaApplierRecommender shard that never ran the incremental update
// itself — must exactly match a fresh recommender trained
// single-threaded over the same event prefix.
TEST_F(DeltaEquivalenceTest, AppliedDeltasMatchPrefixRecomputeOnEveryShard) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 0;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.delta_shipping());
  ASSERT_NE(service.builder_recommender(), nullptr);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 3; ++i) checkpoints.push_back(num_test_ * i / 3);

  std::atomic<Timestamp> sim_now{protocol_.split_time};
  std::atomic<bool> done{false};
  std::atomic<int64_t> background_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t);
      while (!done.load()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const UserId user = sample_[x % sample_.size()];
        const RecommendResponse response = service.Recommend(
            {user, sim_now.load(std::memory_order_relaxed), 10});
        if (!response.status.ok()) background_failures.fetch_add(1);
      }
    });
  }

  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      const RetweetEvent& e = TestEvent(published);
      seq = service.Publish(e);
      sim_now.store(e.time, std::memory_order_relaxed);
      ++published;
    }
    EXPECT_EQ(seq, static_cast<uint64_t>(published));
    service.WaitForApplied(seq);
    for (int32_t s = 0; s < service.num_shards(); ++s) {
      EXPECT_GE(service.shard(s).AppliedSeq(), seq) << "shard " << s;
    }

    SimGraphRecommender reference;
    ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
    for (int64_t i = 0; i < published; ++i) reference.Observe(TestEvent(i));
    const Timestamp now = sim_now.load();
    for (const UserId user : sample_) {
      const RecommendResponse response = service.Recommend({user, now, 10});
      ASSERT_TRUE(response.status.ok());
      EXPECT_FALSE(response.degraded);
      ExpectBitIdentical(response.tweets, reference.Recommend(user, now, 10),
                         user);
    }
  }

  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(background_failures.load(), 0);
  service.Stop();
}

// With snapshot refreshes enabled (epoch swaps mid-stream), the
// delta-shipping service and the legacy replicated service must stay
// bit-identical on every shard at every checkpoint: same events, same
// graph epochs, same scores.
TEST_F(DeltaEquivalenceTest, DeltaAndReplicatedModesAgreeAcrossEpochSwaps) {
  ServingSimGraphOptions simgraph_options;
  simgraph_options.snapshot_refresh_events = 16;

  ShardedServiceOptions options;
  options.num_shards = 3;
  options.shard_options.cache_ttl = 0;
  ShardedService delta_service(simgraph_options, options);
  ShardedService replicated_service(
      [&] { return MakeReplicatedSimGraph(simgraph_options); }, options);
  ASSERT_TRUE(delta_service.delta_shipping());
  ASSERT_FALSE(replicated_service.delta_shipping());
  ASSERT_TRUE(delta_service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(replicated_service.Train(dataset_, protocol_.train_end).ok());
  delta_service.Start();
  replicated_service.Start();

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 4; ++i) checkpoints.push_back(num_test_ * i / 4);
  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      const RetweetEvent& e = TestEvent(published);
      seq = delta_service.Publish(e);
      const uint64_t replicated_seq = replicated_service.Publish(e);
      EXPECT_EQ(seq, replicated_seq);
      ++published;
    }
    delta_service.WaitForApplied(seq);
    replicated_service.WaitForApplied(seq);

    const Timestamp now = TestEvent(published - 1).time;
    for (const UserId user : sample_) {
      const RecommendResponse actual =
          delta_service.Recommend({user, now, 10});
      const RecommendResponse expected =
          replicated_service.Recommend({user, now, 10});
      ASSERT_TRUE(actual.status.ok());
      ASSERT_TRUE(expected.status.ok());
      ExpectBitIdentical(actual.tweets, expected.tweets, user);
    }
    // Epoch swaps shipped through deltas land on every applier shard.
    const BackendStats delta_stats = delta_service.Stats();
    const BackendStats replicated_stats = replicated_service.Stats();
    EXPECT_EQ(delta_stats.graph_epoch, replicated_stats.graph_epoch);
    EXPECT_EQ(delta_stats.graph_edges, replicated_stats.graph_edges);
  }
  EXPECT_GT(delta_service.Stats().graph_epoch, 1u);  // swaps happened

  delta_service.Stop();
  replicated_service.Stop();
}

// The staged builder (ObserveBatchRecordingDelta: rescore in order,
// propagation on the pool, deposits in order) must record exactly what
// one ObserveRecordingDelta call per event records over the same batch
// boundaries: byte-identical SGDL for every delta and the same final
// candidate state. The stream forces the awkward cases into batches of
// 16: snapshot refreshes every 7 events (so inside batches), unknown
// tweet ids, an eviction sweep every 5 events, and a tweet repeated
// within a batch.
TEST_F(DeltaEquivalenceTest, StagedBatchRecordsTheSameDeltasAsPerEventCalls) {
  ServingSimGraphOptions options;
  options.snapshot_refresh_events = 7;
  options.evict_every = 5;
  std::vector<RetweetEvent> stream;
  for (int64_t i = 0; i < num_test_; ++i) {
    const RetweetEvent& e = TestEvent(i);
    stream.push_back(e);
    if (i % 5 == 4) {  // the same tweet again, a few events later
      RetweetEvent again = e;
      again.user = (e.user + 1) % dataset_.num_users();
      stream.push_back(again);
    }
    if (i % 11 == 10) {  // beyond the catalogue
      RetweetEvent unknown = e;
      unknown.tweet = dataset_.num_tweets() + i;
      stream.push_back(unknown);
    }
  }
  constexpr size_t kBatch = 16;

  SimGraphServingRecommender per_event(options);
  SimGraphServingRecommender staged(options);
  ASSERT_TRUE(per_event.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(staged.Train(dataset_, protocol_.train_end).ok());
  const auto finish = [](SimGraphDelta* delta, std::string* bytes) {
    std::sort(delta->invalidated.begin(), delta->invalidated.end());
    delta->invalidated.erase(
        std::unique(delta->invalidated.begin(), delta->invalidated.end()),
        delta->invalidated.end());
    bytes->clear();
    delta->SerializeTo(bytes);
  };
  int64_t refreshes_inside = 0;
  int64_t evictions = 0;
  int64_t repeats = 0;
  int64_t deposits = 0;
  SimGraphDelta expected;
  SimGraphDelta actual;
  std::string expected_bytes;
  std::string actual_bytes;
  for (size_t begin = 0; begin < stream.size(); begin += kBatch) {
    const size_t end = std::min(stream.size(), begin + kBatch);
    const std::span<const RetweetEvent> batch(stream.data() + begin,
                                              end - begin);
    expected.Clear();
    actual.Clear();
    expected.seq_begin = actual.seq_begin = begin + 1;
    expected.seq_end = actual.seq_end = end;
    for (const RetweetEvent& e : batch) {
      per_event.ObserveRecordingDelta(e, &expected);
    }
    staged.ObserveBatchRecordingDelta(batch, &actual);
    finish(&expected, &expected_bytes);
    finish(&actual, &actual_bytes);
    ASSERT_EQ(actual_bytes, expected_bytes)
        << "delta for events " << begin + 1 << ".." << end;
    // In-process shards get the batch's last refreshed snapshot.
    const bool refreshed =
        (actual.flags & SimGraphDelta::kFlagSnapshotRefresh) != 0;
    EXPECT_EQ(actual.snapshot,
              refreshed ? staged.GraphSnapshot() : nullptr);

    const size_t first_refresh = (begin / 7 + 1) * 7;  // 1-based seq
    if (first_refresh < end) ++refreshes_inside;
    if (expected.evict_before != 0) ++evictions;
    deposits += static_cast<int64_t>(expected.deposits.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = i + 1; j < batch.size(); ++j) {
        if (batch[i].tweet == batch[j].tweet) ++repeats;
      }
    }
  }
  EXPECT_GT(refreshes_inside, 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(repeats, 0);
  EXPECT_GT(deposits, 0);
  EXPECT_EQ(staged.num_propagations(), per_event.num_propagations());
  EXPECT_EQ(staged.graph_epoch(), per_event.graph_epoch());

  const CandidateStore& want = per_event.candidate_state().store();
  const CandidateStore& got = staged.candidate_state().store();
  for (UserId u = 0; u < dataset_.num_users(); ++u) {
    ASSERT_EQ(SortedCandidates(got, u), SortedCandidates(want, u))
        << "user " << u;
    for (TweetId t = 0; t < dataset_.num_tweets(); ++t) {
      ASSERT_EQ(got.IsConsumed(u, t), want.IsConsumed(u, t))
          << "user " << u << " tweet " << t;
    }
  }
}

// A remote replica fed only serialized bytes (the delta_observer tap,
// standing in for an RPC transport) reconstructs the same candidate
// state as the in-process shards: serialize -> parse -> ApplyDelta must
// converge to the same answers.
TEST_F(DeltaEquivalenceTest, WireFedReplicaMatchesInProcessShards) {
  DeltaApplierOptions applier_options;  // defaults mirror the builder's
  auto replica = std::make_unique<DeltaApplierRecommender>(applier_options);
  DeltaApplierRecommender* replica_ptr = replica.get();

  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.delta_observer = [replica_ptr](const SimGraphDelta& delta) {
    std::string wire;
    delta.SerializeTo(&wire);
    SimGraphDelta parsed;
    ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
    replica_ptr->ApplyDelta(parsed);
  };
  // Default options: snapshot_refresh_events = 0, so no epoch swap is
  // shipped mid-stream — the wire format carries edge ops, not the
  // in-process snapshot pointer, and this replica never rebuilds a
  // graph of its own.
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(replica->Train(dataset_, protocol_.train_end).ok());
  replica->SeedSnapshot(service.builder_recommender()->GraphSnapshot(),
                        service.builder_recommender()->graph_epoch());
  service.Start();

  uint64_t seq = 0;
  for (int64_t i = 0; i < num_test_; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);
  service.Stop();  // joins the builder: the replica is quiescent now
  EXPECT_EQ(replica->applied_delta_seq(), static_cast<uint64_t>(num_test_));

  const Timestamp now = dataset_.retweets.back().time;
  for (const UserId user : sample_) {
    const RecommendResponse served = service.Recommend({user, now, 10});
    ASSERT_TRUE(served.status.ok());
    ExpectBitIdentical(replica->Recommend(user, now, 10), served.tweets,
                       user);
  }
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
