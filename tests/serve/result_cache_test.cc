#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "serve/candidate_state.h"

namespace simgraph {
namespace serve {
namespace {

std::vector<ScoredTweet> MakeList(std::initializer_list<TweetId> ids) {
  std::vector<ScoredTweet> out;
  double score = 1.0;
  for (const TweetId id : ids) {
    out.push_back(ScoredTweet{id, score});
    score /= 2.0;
  }
  return out;
}

TEST(ResultCacheTest, MissThenPutThenHit) {
  ResultCache cache(10, /*ttl=*/100);
  ResultCache::Lookup miss = cache.Get(3, /*now=*/1000, /*k=*/5);
  EXPECT_FALSE(miss.hit);
  ASSERT_TRUE(cache.Put(3, 1000, 5, MakeList({7, 8, 9}), miss.version));
  ResultCache::Lookup hit = cache.Get(3, 1000, 5);
  ASSERT_TRUE(hit.hit);
  ASSERT_EQ(hit.tweets.size(), 3u);
  EXPECT_EQ(hit.tweets[0].tweet, 7);
  EXPECT_EQ(cache.size(), 1);
}

TEST(ResultCacheTest, TtlWindowIsInclusiveAndRejectsPastAndFuture) {
  ResultCache cache(4, /*ttl=*/50);
  const uint64_t v = cache.Get(0, 0, 3).version;
  ASSERT_TRUE(cache.Put(0, /*computed_at=*/100, 3, MakeList({1}), v));
  EXPECT_TRUE(cache.Get(0, 100, 3).hit);   // same instant
  EXPECT_TRUE(cache.Get(0, 150, 3).hit);   // edge of the window
  EXPECT_FALSE(cache.Get(0, 151, 3).hit);  // expired
  EXPECT_FALSE(cache.Get(0, 99, 3).hit);   // request older than the entry
}

TEST(ResultCacheTest, ZeroTtlServesSameInstantOnly) {
  ResultCache cache(2, /*ttl=*/0);
  const uint64_t v = cache.Get(1, 0, 2).version;
  ASSERT_TRUE(cache.Put(1, 500, 2, MakeList({4}), v));
  EXPECT_TRUE(cache.Get(1, 500, 2).hit);
  EXPECT_FALSE(cache.Get(1, 501, 2).hit);
}

TEST(ResultCacheTest, LargerKMissesUnlessListWasComplete) {
  ResultCache cache(4, 100);
  // Full list of 3 for k=3: asking for 5 must recompute.
  uint64_t v = cache.Get(0, 0, 3).version;
  ASSERT_TRUE(cache.Put(0, 10, 3, MakeList({1, 2, 3}), v));
  EXPECT_TRUE(cache.Get(0, 10, 3).hit);
  EXPECT_TRUE(cache.Get(0, 10, 2).hit);  // prefix of a cached list
  EXPECT_FALSE(cache.Get(0, 10, 5).hit);

  // Only 2 candidates existed for k=3 (complete list): any k hits.
  v = cache.Get(1, 0, 3).version;
  ASSERT_TRUE(cache.Put(1, 10, 3, MakeList({1, 2}), v));
  ResultCache::Lookup big = cache.Get(1, 10, 50);
  ASSERT_TRUE(big.hit);
  EXPECT_EQ(big.tweets.size(), 2u);
}

TEST(ResultCacheTest, PrefixServeReturnsFirstKEntries) {
  ResultCache cache(2, 100);
  const uint64_t v = cache.Get(0, 0, 4).version;
  ASSERT_TRUE(cache.Put(0, 10, 4, MakeList({9, 8, 7, 6}), v));
  ResultCache::Lookup two = cache.Get(0, 10, 2);
  ASSERT_TRUE(two.hit);
  ASSERT_EQ(two.tweets.size(), 2u);
  EXPECT_EQ(two.tweets[0].tweet, 9);
  EXPECT_EQ(two.tweets[1].tweet, 8);
}

TEST(ResultCacheTest, InvalidateBumpsVersionAndRejectsStalePut) {
  ResultCache cache(4, 100);
  const uint64_t v = cache.Get(2, 0, 3).version;
  // An event for user 2 lands while the answer is being computed.
  EXPECT_FALSE(cache.Invalidate(2));  // nothing cached yet
  EXPECT_EQ(cache.Version(2), v + 1);
  EXPECT_FALSE(cache.Put(2, 10, 3, MakeList({1}), v));  // stale, rejected
  EXPECT_FALSE(cache.Get(2, 10, 3).hit);
}

TEST(ResultCacheTest, InvalidateDropsEntry) {
  ResultCache cache(4, 100);
  const uint64_t v = cache.Get(2, 0, 3).version;
  ASSERT_TRUE(cache.Put(2, 10, 3, MakeList({1}), v));
  EXPECT_TRUE(cache.Invalidate(2));
  EXPECT_FALSE(cache.Get(2, 10, 3).hit);
  EXPECT_EQ(cache.size(), 0);
}

TEST(ResultCacheTest, InvalidateAllCountsDroppedEntries) {
  ResultCache cache(4, 100);
  for (UserId u = 0; u < 3; ++u) {
    const uint64_t v = cache.Get(u, 0, 2).version;
    ASSERT_TRUE(cache.Put(u, 10, 2, MakeList({1}), v));
  }
  EXPECT_EQ(cache.InvalidateAll(), 3);
  EXPECT_EQ(cache.InvalidateAll(), 0);
  EXPECT_EQ(cache.size(), 0);
}

// A hit must be the answer a recompute at the request's `now` gives:
// the cache stores the scan's valid_until and misses from then on, even
// inside the TTL. Two users over three tweets with a 100 s freshness
// window: tweet 0 posted at 0, tweet 1 at 50, tweet 2 at 80.
class CacheFreshnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dataset dataset;
    dataset.num_users_hint = 2;
    for (const Timestamp posted : {0, 50, 80}) {
      Tweet tweet;
      tweet.id = static_cast<TweetId>(dataset.tweets.size());
      tweet.time = posted;
      dataset.tweets.push_back(tweet);
    }
    ASSERT_TRUE(state_.Init(dataset, 0, /*freshness_window=*/100, 4).ok());
  }

  RecommendOutcome Scan(UserId user, Timestamp now) const {
    return state_.ScanTopK(user, now, /*k=*/5,
                           std::chrono::steady_clock::time_point::max());
  }

  static std::vector<TweetId> Ids(const std::vector<ScoredTweet>& tweets) {
    std::vector<TweetId> ids;
    for (const ScoredTweet& t : tweets) ids.push_back(t.tweet);
    return ids;
  }

  /// Caches the scan at `computed_at` the way RecommendationService does,
  /// then checks every `now` of the TTL: a hit equals the recompute.
  void ExpectHitsMatchRecompute(UserId user, Timestamp computed_at) {
    ResultCache cache(2, /*ttl=*/1000);
    const RecommendOutcome outcome = Scan(user, computed_at);
    ASSERT_TRUE(cache.Put(user, computed_at, 5, outcome.tweets,
                          cache.Version(user), outcome.valid_until));
    for (Timestamp now = computed_at; now <= computed_at + 1000; ++now) {
      const ResultCache::Lookup lookup = cache.Get(user, now, 5);
      if (lookup.hit) {
        ASSERT_EQ(Ids(lookup.tweets), Ids(Scan(user, now).tweets))
            << "stale hit at now=" << now;
      }
    }
  }

  CandidateState state_;
};

TEST_F(CacheFreshnessTest, ReturnedTweetAgingOutEndsTheHit) {
  state_.Deposit(0, 0, 0.9);
  state_.Deposit(0, 1, 0.5);
  const RecommendOutcome at60 = Scan(0, 60);
  EXPECT_EQ(Ids(at60.tweets), (std::vector<TweetId>{0, 1}));
  EXPECT_EQ(at60.valid_until, 101);  // tweet 0 is fresh through now=100

  ResultCache cache(2, /*ttl=*/1000);
  ASSERT_TRUE(cache.Put(0, 60, 5, at60.tweets, cache.Version(0),
                        at60.valid_until));
  EXPECT_TRUE(cache.Get(0, 100, 5).hit);
  EXPECT_FALSE(cache.Get(0, 101, 5).hit);
  EXPECT_EQ(Ids(Scan(0, 101).tweets), (std::vector<TweetId>{1}));
  ExpectHitsMatchRecompute(0, 60);
}

TEST_F(CacheFreshnessTest, HiddenTweetBecomingVisibleEndsTheHit) {
  state_.Deposit(1, 0, 0.5);
  state_.Deposit(1, 2, 0.9);  // posted at 80: hidden before then
  const RecommendOutcome at60 = Scan(1, 60);
  EXPECT_EQ(Ids(at60.tweets), (std::vector<TweetId>{0}));
  EXPECT_EQ(at60.valid_until, 80);

  ResultCache cache(2, /*ttl=*/1000);
  ASSERT_TRUE(cache.Put(1, 60, 5, at60.tweets, cache.Version(1),
                        at60.valid_until));
  EXPECT_TRUE(cache.Get(1, 79, 5).hit);
  EXPECT_FALSE(cache.Get(1, 80, 5).hit);
  EXPECT_EQ(Ids(Scan(1, 80).tweets), (std::vector<TweetId>{2, 0}));
  ExpectHitsMatchRecompute(1, 60);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
