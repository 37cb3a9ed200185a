#ifndef SIMGRAPH_CORE_CANDIDATE_STORE_H_
#define SIMGRAPH_CORE_CANDIDATE_STORE_H_

#include <cstdint>
#include <limits>
#include <memory>
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
///
/// Layout: each user owns one open-addressed table of 16-byte
/// {tweet, score} slots (linear probing, power-of-two capacity, load at
/// most 3/4). A consumed mark lives in the slot key itself, so Deposit
/// is a single probe and allocates only when a new entry grows the
/// table. Iteration order over a user's candidates is unspecified.
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
    const Slot* slot = Find(tables_[static_cast<size_t>(user)], tweet);
    return slot != nullptr && slot->key < 0;
  }

  /// Top-k fresh, unconsumed candidates for `user` at time `now`, best
  /// first; ties broken by tweet id for determinism.
  std::vector<ScoredTweet> TopK(UserId user, Timestamp now, int32_t k) const;

  /// Drops stale candidates for all users (call periodically to bound
  /// memory). A tweet is stale when older than the freshness window
  /// relative to `now`. Consumed marks are kept.
  void EvictStale(Timestamp now);

  /// EvictStale restricted to one user, so concurrent callers that stripe
  /// their locks per user (src/serve/) can evict without a global lock.
  void EvictStaleForUser(UserId user, Timestamp now);

  /// Calls `fn(tweet, score)` for every stored candidate of `user`
  /// (consumed tweets are never visited) in unspecified order, stopping
  /// early when `fn` returns false. Callers that need deadline-aware
  /// partial scans use this with IsFresh; everyone else should use TopK.
  template <typename Fn>
  void ForEachCandidate(UserId user, Fn&& fn) const {
    const Table& table = tables_[static_cast<size_t>(user)];
    for (uint32_t i = 0; i < table.capacity; ++i) {
      const Slot& slot = table.slots[i];
      if (slot.key < 0) continue;  // empty or consumed
      if (!fn(slot.key, slot.score)) return;
    }
  }

  /// Occupied slots of `user` (candidates plus consumed marks): an upper
  /// bound on what ForEachCandidate visits.
  int64_t OccupiedSlots(UserId user) const {
    return tables_[static_cast<size_t>(user)].used;
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
  /// key >= 0: a candidate tweet id; key == kEmptyKey: a free slot; any
  /// other negative key: the consumed mark ~tweet (score unused).
  struct Slot {
    int64_t key = kEmptyKey;
    double score = 0.0;
  };
  static constexpr int64_t kEmptyKey = std::numeric_limits<int64_t>::min();

  struct Table {
    std::unique_ptr<Slot[]> slots;
    uint32_t capacity = 0;  // 0 or a power of two
    uint32_t used = 0;      // candidates plus consumed marks
  };

  static uint32_t Home(const Table& table, TweetId tweet) {
    return static_cast<uint32_t>(
               (static_cast<uint64_t>(tweet) * 0x9E3779B97F4A7C15ull) >> 32) &
           (table.capacity - 1);
  }
  static TweetId TweetOf(int64_t key) { return key >= 0 ? key : ~key; }

  /// The slot holding `tweet` (candidate or consumed), or null.
  static const Slot* Find(const Table& table, TweetId tweet);
  /// The slot holding `tweet`, inserting a score-0 candidate when absent
  /// (growing the table first when the insert would exceed load 3/4).
  static Slot* FindOrInsert(Table& table, TweetId tweet);
  static void Grow(Table& table);

  std::vector<Timestamp> tweet_times_;
  Timestamp freshness_window_;
  std::vector<Table> tables_;  // per user
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_CANDIDATE_STORE_H_
