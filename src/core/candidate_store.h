#ifndef SIMGRAPH_CORE_CANDIDATE_STORE_H_
#define SIMGRAPH_CORE_CANDIDATE_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/recommender.h"
#include "dataset/types.h"

namespace simgraph {

/// Per-user accumulator of candidate posts with scores, shared by the
/// message-centric recommenders (SimGraph, CF, Bayes). Handles the two
/// recommendation hygiene rules of the protocol:
///   * never recommend a post the user already interacted with;
///   * never recommend an outdated post (older than the freshness window —
///     the paper's Section 3 concludes 72 h).
class CandidateStore {
 public:
  /// `tweet_times[i]` is the publication time of tweet i (used for the
  /// freshness filter).
  CandidateStore(int32_t num_users, std::vector<Timestamp> tweet_times,
                 Timestamp freshness_window);

  /// Raises the score of `tweet` for `user` to at least `score`
  /// (keeping the max of repeated deposits). Returns true when the stored
  /// score actually changed — the serving layer's precise cache
  /// invalidation keys off this.
  bool Deposit(UserId user, TweetId tweet, double score);

  /// Adds `delta` to the score of `tweet` for `user`. Returns true when
  /// the stored score changed (i.e. delta != 0 and not consumed).
  bool Accumulate(UserId user, TweetId tweet, double delta);

  /// Marks that `user` interacted with `tweet`; it will never be
  /// recommended to them again (and is removed if currently stored).
  void MarkConsumed(UserId user, TweetId tweet);

  /// True when MarkConsumed(user, tweet) was called before.
  bool IsConsumed(UserId user, TweetId tweet) const {
    return consumed_[static_cast<size_t>(user)].contains(tweet);
  }

  /// Top-k fresh, unconsumed candidates for `user` at time `now`, best
  /// first; ties broken by tweet id for determinism.
  std::vector<ScoredTweet> TopK(UserId user, Timestamp now, int32_t k) const;

  /// Drops stale candidates for all users (call periodically to bound
  /// memory). A tweet is stale when older than the freshness window
  /// relative to `now`.
  void EvictStale(Timestamp now);

  /// EvictStale restricted to one user, so concurrent callers that stripe
  /// their locks per user (src/serve/) can evict without a global lock.
  void EvictStaleForUser(UserId user, Timestamp now);

  /// The raw candidate map of `user` (consumed tweets are never present).
  /// Callers that need deadline-aware partial scans iterate this directly
  /// with IsFresh; everyone else should use TopK.
  const std::unordered_map<TweetId, double>& CandidatesOf(UserId user) const {
    return candidates_[static_cast<size_t>(user)];
  }

  /// True when `tweet` is within the freshness window at time `now`.
  bool IsFresh(TweetId tweet, Timestamp now) const {
    return tweet_times_[static_cast<size_t>(tweet)] + freshness_window_ >= now;
  }

  /// The last `now` at which `tweet` is fresh.
  Timestamp FreshUntil(TweetId tweet) const {
    return tweet_times_[static_cast<size_t>(tweet)] + freshness_window_;
  }

  /// Publication time of `tweet`.
  Timestamp TweetTime(TweetId tweet) const {
    return tweet_times_[static_cast<size_t>(tweet)];
  }

  int64_t TotalCandidates() const;

 private:
  std::vector<Timestamp> tweet_times_;
  Timestamp freshness_window_;
  std::vector<std::unordered_map<TweetId, double>> candidates_;  // per user
  std::vector<std::unordered_set<TweetId>> consumed_;            // per user
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_CANDIDATE_STORE_H_
