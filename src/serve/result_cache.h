#ifndef SIMGRAPH_SERVE_RESULT_CACHE_H_
#define SIMGRAPH_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/recommender.h"
#include "dataset/types.h"

namespace simgraph {
namespace serve {

/// Per-user cache of top-k recommendation lists with TTL *and* precise
/// versioned invalidation, shared by the serving layer
/// (docs/serving.md has the full semantics).
///
/// Each user has a monotonically increasing version. Invalidate(u) bumps
/// the version and drops the cached entry; Put is compare-and-swap on the
/// version observed before computing, so a result computed concurrently
/// with an invalidating event can never be cached (the classic stale-read
/// race).
///
/// A cached entry computed at simulated time T for budget K serves a
/// request (user, now, k) when:
///   * the user's version is unchanged since the entry was stored, and
///   * T <= now <= T + ttl (ttl 0 means "same simulated instant only"),
///   * now < the entry's valid_until (RecommendOutcome::valid_until: the
///     list would change by the clock alone from then on),
///   * k <= K, or the stored list is complete (the user had fewer than K
///     candidates, so any k sees the whole list).
/// The served list is the first min(k, size) entries — valid because the
/// Recommender determinism contract makes top-k lists prefix-consistent.
///
/// Locks are striped over users, so readers of different stripes never
/// contend and the single ingest thread invalidating user u only blocks
/// readers of u's stripe.
class ResultCache {
 public:
  /// `ttl` is in simulated seconds (>= 0).
  ResultCache(int32_t num_users, Timestamp ttl, int32_t num_stripes = 64);

  struct Lookup {
    bool hit = false;
    std::vector<ScoredTweet> tweets;  // only filled on hit
    /// The user's version at lookup time; pass to Put unchanged.
    uint64_t version = 0;
  };

  /// Looks up (user, now, k); on miss, `version` still carries the value
  /// Put needs.
  Lookup Get(UserId user, Timestamp now, int32_t k);

  /// Stores a complete top-k list computed at `computed_at` while the
  /// user's version was `version`, good for requests with `now` before
  /// `valid_until`. Returns false (and stores nothing) when the version
  /// moved — i.e. an event invalidated the user while the list was being
  /// computed.
  bool Put(UserId user, Timestamp computed_at, int32_t k,
           std::vector<ScoredTweet> tweets, uint64_t version,
           Timestamp valid_until = std::numeric_limits<Timestamp>::max());

  /// Bumps the user's version and drops any cached entry. Returns true
  /// when an entry was actually dropped.
  bool Invalidate(UserId user);

  /// Invalidates every user (generic recommenders cannot report precise
  /// affected sets). Returns the number of entries dropped.
  int64_t InvalidateAll();

  uint64_t Version(UserId user) const;

  /// Number of currently cached entries.
  int64_t size() const;

  int32_t num_users() const { return static_cast<int32_t>(entries_.size()); }
  Timestamp ttl() const { return ttl_; }

 private:
  struct Entry {
    uint64_t version = 0;
    bool valid = false;
    Timestamp computed_at = 0;
    Timestamp valid_until = 0;
    int32_t k = 0;
    std::vector<ScoredTweet> tweets;
  };
  struct Stripe {
    mutable std::shared_mutex mu;
  };

  Stripe& stripe_of(UserId user) const {
    return *stripes_[static_cast<size_t>(user) % stripes_.size()];
  }

  Timestamp ttl_;
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_RESULT_CACHE_H_
