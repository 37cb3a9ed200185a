#include "core/candidate_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/random.h"

namespace simgraph {
namespace {

constexpr Timestamp kHour = kSecondsPerHour;

CandidateStore MakeStore() {
  // 5 tweets published at hours 0, 10, 20, 30, 40; 72h freshness.
  std::vector<Timestamp> times = {0, 10 * kHour, 20 * kHour, 30 * kHour,
                                  40 * kHour};
  return CandidateStore(/*num_users=*/3, std::move(times), 72 * kHour);
}

TEST(CandidateStoreTest, TopKOrdersByScore) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.1);
  store.Deposit(0, 1, 0.9);
  store.Deposit(0, 2, 0.5);
  const auto top = store.TopK(0, 50 * kHour, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tweet, 1);
  EXPECT_EQ(top[1].tweet, 2);
}

TEST(CandidateStoreTest, TiesBrokenByTweetId) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 2, 0.5);
  store.Deposit(0, 1, 0.5);
  const auto top = store.TopK(0, 50 * kHour, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tweet, 1);
  EXPECT_EQ(top[1].tweet, 2);
}

TEST(CandidateStoreTest, DepositKeepsMax) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.5);
  store.Deposit(0, 0, 0.2);  // lower, ignored
  const auto top = store.TopK(0, 10 * kHour, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.5);
  store.Deposit(0, 0, 0.8);  // higher, kept
  EXPECT_DOUBLE_EQ(store.TopK(0, 10 * kHour, 1)[0].score, 0.8);
}

TEST(CandidateStoreTest, AccumulateSums) {
  CandidateStore store = MakeStore();
  store.Accumulate(0, 0, 0.25);
  store.Accumulate(0, 0, 0.5);
  EXPECT_DOUBLE_EQ(store.TopK(0, 10 * kHour, 1)[0].score, 0.75);
}

TEST(CandidateStoreTest, ConsumedNeverRecommended) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.MarkConsumed(0, 0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
  // Deposits after consumption are also ignored.
  store.Deposit(0, 0, 0.95);
  store.Accumulate(0, 0, 1.0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
}

TEST(CandidateStoreTest, ConsumptionIsPerUser) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.Deposit(1, 0, 0.9);
  store.MarkConsumed(0, 0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
  EXPECT_EQ(store.TopK(1, 10 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, StaleTweetsAreFiltered) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);  // published at 0, fresh until 72h
  EXPECT_EQ(store.TopK(0, 72 * kHour, 5).size(), 1u);
  EXPECT_TRUE(store.TopK(0, 73 * kHour, 5).empty());
}

TEST(CandidateStoreTest, FutureTweetsAreNotRecommended) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 4, 0.9);  // published at 40h
  EXPECT_TRUE(store.TopK(0, 39 * kHour, 5).empty());
  EXPECT_EQ(store.TopK(0, 41 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, ZeroScoresAreNotRecommended) {
  CandidateStore store = MakeStore();
  store.Accumulate(0, 0, 0.0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
}

TEST(CandidateStoreTest, EvictStaleShrinksStore) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.Deposit(0, 4, 0.9);
  EXPECT_EQ(store.TotalCandidates(), 2);
  store.EvictStale(80 * kHour);  // tweet 0 (published 0h) is stale
  EXPECT_EQ(store.TotalCandidates(), 1);
  EXPECT_EQ(store.TopK(0, 80 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, KLargerThanCandidatesReturnsAll) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.3);
  store.Deposit(0, 1, 0.2);
  const auto top = store.TopK(0, 20 * kHour, 100);
  EXPECT_EQ(top.size(), 2u);
}

TEST(CandidateStoreTest, EvictStaleKeepsConsumedMarks) {
  CandidateStore store = MakeStore();
  store.MarkConsumed(0, 0);
  store.EvictStale(80 * kHour);  // tweet 0 is stale, but still consumed
  EXPECT_TRUE(store.IsConsumed(0, 0));
  store.Deposit(0, 0, 0.9);
  EXPECT_EQ(store.TotalCandidates(), 0);
}

TEST(CandidateStoreTest, ForEachCandidateSkipsConsumedAndStopsEarly) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 1, 0.3);
  store.Deposit(0, 2, 0.2);
  store.Deposit(0, 3, 0.1);
  store.MarkConsumed(0, 2);
  std::set<TweetId> seen;
  store.ForEachCandidate(0, [&](TweetId tweet, double) {
    seen.insert(tweet);
    return true;
  });
  EXPECT_EQ(seen, (std::set<TweetId>{1, 3}));
  int visits = 0;
  store.ForEachCandidate(0, [&](TweetId, double) {
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 1);
}

// Reference model of CandidateStore's documented semantics over ordered
// containers: a Deposit or Accumulate on an absent, unconsumed tweet
// first creates a 0.0 entry, exactly as the store does.
class ModelStore {
 public:
  ModelStore(std::vector<Timestamp> times, Timestamp window)
      : times_(std::move(times)), window_(window) {}

  bool Deposit(UserId u, TweetId t, double score) {
    if (consumed_.contains({u, t})) return false;
    double& slot = candidates_[{u, t}];
    if (score <= slot) return false;
    slot = score;
    return true;
  }
  bool Accumulate(UserId u, TweetId t, double delta) {
    if (consumed_.contains({u, t})) return false;
    candidates_[{u, t}] += delta;
    return delta != 0.0;
  }
  void MarkConsumed(UserId u, TweetId t) {
    consumed_.insert({u, t});
    candidates_.erase({u, t});
  }
  bool IsConsumed(UserId u, TweetId t) const {
    return consumed_.contains({u, t});
  }
  void EvictStale(Timestamp now) {
    std::erase_if(candidates_, [&](const auto& entry) {
      return times_[static_cast<size_t>(entry.first.second)] + window_ < now;
    });
  }
  std::vector<ScoredTweet> TopK(UserId u, Timestamp now, int32_t k) const {
    std::vector<ScoredTweet> fresh;
    for (const auto& [key, score] : candidates_) {
      const Timestamp posted = times_[static_cast<size_t>(key.second)];
      if (key.first == u && score > 0.0 && posted + window_ >= now &&
          posted <= now) {
        fresh.push_back(ScoredTweet{key.second, score});
      }
    }
    std::sort(fresh.begin(), fresh.end(),
              [](const ScoredTweet& a, const ScoredTweet& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.tweet < b.tweet;
              });
    if (static_cast<int64_t>(fresh.size()) > k) fresh.resize(k);
    return fresh;
  }
  std::map<TweetId, double> CandidatesOf(UserId u) const {
    std::map<TweetId, double> out;
    for (const auto& [key, score] : candidates_) {
      if (key.first == u) out.emplace(key.second, score);
    }
    return out;
  }
  const std::map<std::pair<UserId, TweetId>, double>& candidates() const {
    return candidates_;
  }
  const std::set<std::pair<UserId, TweetId>>& consumed() const {
    return consumed_;
  }

 private:
  std::vector<Timestamp> times_;
  Timestamp window_;
  std::map<std::pair<UserId, TweetId>, double> candidates_;
  std::set<std::pair<UserId, TweetId>> consumed_;
};

std::map<TweetId, double> StoredCandidates(const CandidateStore& store,
                                           UserId u) {
  std::map<TweetId, double> out;
  store.ForEachCandidate(u, [&](TweetId tweet, double score) {
    EXPECT_TRUE(out.emplace(tweet, score).second) << "duplicate " << tweet;
    return true;
  });
  return out;
}

void ExpectSameState(const CandidateStore& store, const ModelStore& model,
                     int32_t num_users, int32_t num_tweets, Rng& rng) {
  int64_t total = 0;
  for (UserId u = 0; u < num_users; ++u) {
    const std::map<TweetId, double> want = model.CandidatesOf(u);
    // Exact double equality: the store must hold the very bits the
    // model computed.
    ASSERT_EQ(StoredCandidates(store, u), want) << "user " << u;
    total += static_cast<int64_t>(want.size());
  }
  ASSERT_EQ(store.TotalCandidates(), total);
  for (const auto& [u, t] : model.consumed()) {
    ASSERT_TRUE(store.IsConsumed(u, t)) << "user " << u << " tweet " << t;
  }
  for (int i = 0; i < 200; ++i) {
    const UserId u = static_cast<UserId>(rng.NextBounded(num_users));
    const TweetId t = static_cast<TweetId>(rng.NextBounded(num_tweets));
    ASSERT_EQ(store.IsConsumed(u, t), model.IsConsumed(u, t))
        << "user " << u << " tweet " << t;
  }
}

// Randomized differential test against the ordered-container model:
// mixed Deposit/Accumulate/MarkConsumed traffic over a small tweet space
// (so ids repeat and probe chains collide and wrap) grows each user's
// table through several doublings, with EvictStale sweeps in between.
TEST(CandidateStoreTest, MatchesOrderedModelUnderRandomOps) {
  constexpr int32_t kUsers = 5;
  constexpr int32_t kTweets = 3000;
  constexpr Timestamp kWindow = 72 * kHour;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<Timestamp> times(kTweets);
    for (Timestamp& t : times) {
      t = static_cast<Timestamp>(rng.NextBounded(200 * kHour));
    }
    CandidateStore store(kUsers, times, kWindow);
    ModelStore model(times, kWindow);
    Timestamp now = 0;
    for (int step = 0; step < 20000; ++step) {
      const UserId u = static_cast<UserId>(rng.NextBounded(kUsers));
      // Half the traffic hits a hot range of 64 ids: re-deposits into
      // existing entries and consumed marks on stored candidates.
      const TweetId t = static_cast<TweetId>(
          rng.NextBernoulli(0.5) ? rng.NextBounded(64)
                                 : rng.NextBounded(kTweets));
      const uint64_t op = rng.NextBounded(100);
      if (op < 60) {
        // Includes zero and negative scores, which create 0.0 entries.
        const double score = rng.NextDouble() - 0.1;
        ASSERT_EQ(store.Deposit(u, t, score), model.Deposit(u, t, score));
      } else if (op < 80) {
        const double delta =
            rng.NextBernoulli(0.1) ? 0.0 : rng.NextDouble() * 0.5;
        ASSERT_EQ(store.Accumulate(u, t, delta),
                  model.Accumulate(u, t, delta));
      } else if (op < 95) {
        store.MarkConsumed(u, t);
        model.MarkConsumed(u, t);
      } else {
        ASSERT_EQ(store.IsConsumed(u, t), model.IsConsumed(u, t));
      }
      if (step % 2500 == 2499) {
        now += 25 * kHour;
        store.EvictStale(now);
        model.EvictStale(now);
        ExpectSameState(store, model, kUsers, kTweets, rng);
        // Every survivor is still reachable through its probe chain: an
        // equal re-deposit finds the slot instead of inserting a twin.
        const int64_t before = store.TotalCandidates();
        for (const auto& [key, score] : model.candidates()) {
          ASSERT_FALSE(store.Deposit(key.first, key.second, score));
        }
        ASSERT_EQ(store.TotalCandidates(), before);
        for (const Timestamp at : {now - 80 * kHour, now - 10 * kHour, now,
                                   now + 30 * kHour}) {
          for (UserId v = 0; v < kUsers; ++v) {
            for (const int32_t k : {1, 10, 100000}) {
              const auto got = store.TopK(v, at, k);
              const auto want = model.TopK(v, at, k);
              ASSERT_EQ(got.size(), want.size());
              for (size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(got[i].tweet, want[i].tweet);
                ASSERT_EQ(got[i].score, want[i].score);
              }
            }
          }
        }
      }
    }
    ExpectSameState(store, model, kUsers, kTweets, rng);
    EXPECT_GT(store.TotalCandidates(), 100) << "seed " << seed;
  }
}

}  // namespace
}  // namespace simgraph
