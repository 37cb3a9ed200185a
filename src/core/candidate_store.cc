#include "core/candidate_store.h"

#include <algorithm>

#include "util/logging.h"

namespace simgraph {
namespace {

/// First allocation of a user's table: room for three entries.
constexpr uint32_t kInitialCapacity = 4;

}  // namespace

CandidateStore::CandidateStore(int32_t num_users,
                               std::vector<Timestamp> tweet_times,
                               Timestamp freshness_window)
    : tweet_times_(std::move(tweet_times)),
      freshness_window_(freshness_window),
      tables_(static_cast<size_t>(num_users)) {
  SIMGRAPH_CHECK_GT(freshness_window, 0);
}

const CandidateStore::Slot* CandidateStore::Find(const Table& table,
                                                 TweetId tweet) {
  if (table.capacity == 0) return nullptr;
  const uint32_t mask = table.capacity - 1;
  for (uint32_t i = Home(table, tweet);; i = (i + 1) & mask) {
    const Slot& slot = table.slots[i];
    if (slot.key == kEmptyKey) return nullptr;
    if (TweetOf(slot.key) == tweet) return &slot;
  }
}

CandidateStore::Slot* CandidateStore::FindOrInsert(Table& table,
                                                   TweetId tweet) {
  Slot* free_slot = nullptr;
  if (table.capacity != 0) {
    const uint32_t mask = table.capacity - 1;
    for (uint32_t i = Home(table, tweet);; i = (i + 1) & mask) {
      Slot& slot = table.slots[i];
      if (slot.key == kEmptyKey) {
        free_slot = &slot;
        break;
      }
      if (TweetOf(slot.key) == tweet) return &slot;
    }
  }
  // ~tweet must stay distinct from kEmptyKey and from every live key.
  SIMGRAPH_CHECK(tweet >= 0 && tweet < std::numeric_limits<int64_t>::max())
      << "tweet id " << tweet;
  if (4 * (static_cast<uint64_t>(table.used) + 1) >
      3 * static_cast<uint64_t>(table.capacity)) {
    Grow(table);
    const uint32_t mask = table.capacity - 1;
    uint32_t i = Home(table, tweet);
    while (table.slots[i].key != kEmptyKey) i = (i + 1) & mask;
    free_slot = &table.slots[i];
  }
  free_slot->key = tweet;
  free_slot->score = 0.0;
  ++table.used;
  return free_slot;
}

void CandidateStore::Grow(Table& table) {
  SIMGRAPH_CHECK_LT(table.capacity, 1u << 31) << "candidate table full";
  const uint32_t old_capacity = table.capacity;
  std::unique_ptr<Slot[]> old = std::move(table.slots);
  table.capacity = old_capacity == 0 ? kInitialCapacity : 2 * old_capacity;
  table.slots = std::make_unique<Slot[]>(table.capacity);
  const uint32_t mask = table.capacity - 1;
  for (uint32_t j = 0; j < old_capacity; ++j) {
    if (old[j].key == kEmptyKey) continue;
    uint32_t i = Home(table, TweetOf(old[j].key));
    while (table.slots[i].key != kEmptyKey) i = (i + 1) & mask;
    table.slots[i] = old[j];
  }
}

bool CandidateStore::Deposit(UserId user, TweetId tweet, double score) {
  Slot* slot = FindOrInsert(tables_[static_cast<size_t>(user)], tweet);
  if (slot->key < 0 || score <= slot->score) return false;  // consumed
  slot->score = score;
  return true;
}

bool CandidateStore::Accumulate(UserId user, TweetId tweet, double delta) {
  Slot* slot = FindOrInsert(tables_[static_cast<size_t>(user)], tweet);
  if (slot->key < 0) return false;  // consumed
  slot->score += delta;
  return delta != 0.0;
}

void CandidateStore::MarkConsumed(UserId user, TweetId tweet) {
  Slot* slot = FindOrInsert(tables_[static_cast<size_t>(user)], tweet);
  slot->key = ~tweet;
  slot->score = 0.0;
}

std::vector<ScoredTweet> CandidateStore::TopK(UserId user, Timestamp now,
                                              int32_t k) const {
  std::vector<ScoredTweet> fresh;
  ForEachCandidate(user, [&](TweetId tweet, double score) {
    if (score > 0.0 && IsFresh(tweet, now) &&
        tweet_times_[static_cast<size_t>(tweet)] <= now) {
      fresh.push_back(ScoredTweet{tweet, score});
    }
    return true;
  });
  const auto better = [](const ScoredTweet& a, const ScoredTweet& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.tweet < b.tweet;
  };
  if (static_cast<int64_t>(fresh.size()) > k) {
    std::partial_sort(fresh.begin(), fresh.begin() + k, fresh.end(), better);
    fresh.resize(static_cast<size_t>(k));
  } else {
    std::sort(fresh.begin(), fresh.end(), better);
  }
  return fresh;
}

void CandidateStore::EvictStale(Timestamp now) {
  for (size_t u = 0; u < tables_.size(); ++u) {
    EvictStaleForUser(static_cast<UserId>(u), now);
  }
}

void CandidateStore::EvictStaleForUser(UserId user, Timestamp now) {
  Table& table = tables_[static_cast<size_t>(user)];
  const uint32_t mask = table.capacity - 1;
  uint32_t i = 0;
  while (i < table.capacity) {
    const int64_t key = table.slots[i].key;
    if (key < 0 || IsFresh(key, now)) {
      ++i;
      continue;
    }
    // Backward-shift delete: each later member of the probe chain whose
    // home does not lie cyclically in (hole, j] moves into the hole, so
    // every remaining key stays reachable from its home without
    // tombstones. Entries only move towards the hole, so the scan never
    // skips one; slot i is examined again since it may have been refilled.
    uint32_t hole = i;
    for (uint32_t j = (hole + 1) & mask; table.slots[j].key != kEmptyKey;
         j = (j + 1) & mask) {
      const uint32_t home = Home(table, TweetOf(table.slots[j].key));
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        table.slots[hole] = table.slots[j];
        hole = j;
      }
    }
    table.slots[hole] = Slot{};
    --table.used;
  }
}

int64_t CandidateStore::TotalCandidates() const {
  int64_t total = 0;
  for (size_t u = 0; u < tables_.size(); ++u) {
    ForEachCandidate(static_cast<UserId>(u), [&](TweetId, double) {
      ++total;
      return true;
    });
  }
  return total;
}

}  // namespace simgraph
