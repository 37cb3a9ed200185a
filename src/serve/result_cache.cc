#include "serve/result_cache.h"

#include <algorithm>
#include <mutex>

#include "util/logging.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {

ResultCache::ResultCache(int32_t num_users, Timestamp ttl,
                         int32_t num_stripes)
    : ttl_(ttl), entries_(static_cast<size_t>(num_users)) {
  SIMGRAPH_CHECK_GE(ttl, 0);
  SIMGRAPH_CHECK_GT(num_stripes, 0);
  const size_t stripes = std::min<size_t>(
      static_cast<size_t>(num_stripes),
      std::max<size_t>(1, entries_.size()));
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ResultCache::Lookup ResultCache::Get(UserId user, Timestamp now, int32_t k) {
  SIMGRAPH_TRACE_SPAN("request/cache_lookup", "serve");
  std::shared_lock<std::shared_mutex> lock(stripe_of(user).mu);
  const Entry& entry = entries_[static_cast<size_t>(user)];
  Lookup result;
  result.version = entry.version;
  if (!entry.valid) return result;
  if (now < entry.computed_at || now - entry.computed_at > ttl_ ||
      now >= entry.valid_until) {
    return result;
  }
  const bool complete =
      static_cast<int64_t>(entry.tweets.size()) < entry.k;
  if (k > entry.k && !complete) return result;
  result.hit = true;
  const size_t take =
      std::min(entry.tweets.size(), static_cast<size_t>(k));
  result.tweets.assign(entry.tweets.begin(),
                       entry.tweets.begin() + static_cast<int64_t>(take));
  return result;
}

bool ResultCache::Put(UserId user, Timestamp computed_at, int32_t k,
                      std::vector<ScoredTweet> tweets, uint64_t version,
                      Timestamp valid_until) {
  std::unique_lock<std::shared_mutex> lock(stripe_of(user).mu);
  Entry& entry = entries_[static_cast<size_t>(user)];
  if (entry.version != version) return false;
  entry.valid = true;
  entry.computed_at = computed_at;
  entry.valid_until = valid_until;
  entry.k = k;
  entry.tweets = std::move(tweets);
  return true;
}

bool ResultCache::Invalidate(UserId user) {
  std::unique_lock<std::shared_mutex> lock(stripe_of(user).mu);
  Entry& entry = entries_[static_cast<size_t>(user)];
  ++entry.version;
  const bool dropped = entry.valid;
  entry.valid = false;
  entry.tweets.clear();
  entry.tweets.shrink_to_fit();
  return dropped;
}

int64_t ResultCache::InvalidateAll() {
  int64_t dropped = 0;
  for (size_t u = 0; u < entries_.size(); ++u) {
    if (Invalidate(static_cast<UserId>(u))) ++dropped;
  }
  return dropped;
}

uint64_t ResultCache::Version(UserId user) const {
  std::shared_lock<std::shared_mutex> lock(stripe_of(user).mu);
  return entries_[static_cast<size_t>(user)].version;
}

int64_t ResultCache::size() const {
  int64_t count = 0;
  for (size_t u = 0; u < entries_.size(); ++u) {
    std::shared_lock<std::shared_mutex> lock(
        stripe_of(static_cast<UserId>(u)).mu);
    if (entries_[u].valid) ++count;
  }
  return count;
}

}  // namespace serve
}  // namespace simgraph
