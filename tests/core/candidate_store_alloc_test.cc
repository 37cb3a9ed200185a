// Asserts that CandidateStore's flat per-user tables never allocate once
// an entry exists: re-deposits, accumulations, consumed marks on stored
// tweets, lookups, scans and stale-candidate eviction all reuse the slot
// array. The hook is a global operator new replacement that counts while
// a flag is up, so gtest's own allocations do not pollute the count.
// This test must stay in its own binary — the replaced operator new is
// program-global.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_store.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace simgraph {
namespace {

constexpr int32_t kUsers = 8;
constexpr TweetId kTweets = 2000;

TEST(CandidateStoreAllocation, OperationsOnExistingEntriesAreAllocationFree) {
  // Tweet i is published at second i; a window of 1000 s makes the first
  // half stale at now = 2000.
  std::vector<Timestamp> times(static_cast<size_t>(kTweets));
  for (TweetId t = 0; t < kTweets; ++t) times[static_cast<size_t>(t)] = t;
  CandidateStore store(kUsers, std::move(times), /*freshness_window=*/1000);
  for (UserId u = 0; u < kUsers; ++u) {
    for (TweetId t = u; t < kTweets; t += 3) store.Deposit(u, t, 0.25);
    for (TweetId t = u + 1; t < kTweets; t += 7) store.MarkConsumed(u, t);
  }
  const int64_t stored = store.TotalCandidates();

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  int64_t changed = 0;
  int64_t consumed = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (UserId u = 0; u < kUsers; ++u) {
      for (TweetId t = u; t < kTweets; t += 3) {
        changed += store.Deposit(u, t, 0.25 + pass);  // raises the score
        changed += store.Deposit(u, t, 0.1);          // lower: no change
        changed += store.Accumulate(u, t, 0.5);
        consumed += store.IsConsumed(u, t);
      }
      // Consumed marks on tweets that already hold a slot.
      for (TweetId t = u + 1; t < kTweets; t += 7) store.MarkConsumed(u, t);
    }
  }
  int64_t visited = 0;
  for (UserId u = 0; u < kUsers; ++u) {
    store.ForEachCandidate(u, [&](TweetId, double) {
      ++visited;
      return true;
    });
  }
  store.EvictStale(/*now=*/2000);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_GT(changed, 0);
  EXPECT_GT(consumed, 0);
  EXPECT_EQ(visited, stored);
  EXPECT_LT(store.TotalCandidates(), stored) << "eviction removed nothing";
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0)
      << "operations on existing entries allocated";
}

}  // namespace
}  // namespace simgraph
