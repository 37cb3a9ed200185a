#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "core/propagation.h"
#include "harness.h"
#include "tests/core/reference_propagate.h"

namespace simgraph {
namespace perfbench {
namespace {

/// The oracle's recomputation runs before any timed phase; spread it
/// over the box's cores.
constexpr size_t kOracleThreads = 4;

bool Better(double score_a, TweetId a, double score_b, TweetId b) {
  if (score_a != score_b) return score_a > score_b;
  return a < b;
}

std::string Describe(const Answer& answer) {
  std::ostringstream out;
  out << "user " << answer.user << " now " << answer.now << " applied "
      << answer.applied_seq << (answer.cache_hit ? " (hit)" : " (miss)");
  return out.str();
}

}  // namespace

std::string CheckAnswer(const StreamFacts& facts, const Answer& answer,
                        Timestamp hit_ttl) {
  const Timestamp window =
      kFreshnessWindow + (answer.cache_hit ? std::max<Timestamp>(hit_ttl, 0) : 0);
  if (static_cast<int64_t>(answer.tweets.size()) > answer.k) {
    return Describe(answer) + ": more than k tweets";
  }
  const uint64_t published = std::max(answer.published_seq, answer.applied_seq);
  std::unordered_set<TweetId> seen;
  for (size_t i = 0; i < answer.tweets.size(); ++i) {
    const ScoredTweet& item = answer.tweets[i];
    std::ostringstream where;
    where << Describe(answer) << " tweet " << item.tweet << ": ";
    if (item.tweet < 0 || item.tweet >= facts.num_tweets()) {
      return where.str() + "unknown tweet id";
    }
    if (!seen.insert(item.tweet).second) return where.str() + "duplicate";
    if (!(item.score > 0.0 && item.score <= 1.0)) {
      return where.str() + "score outside (0, 1]";
    }
    if (i > 0) {
      const ScoredTweet& prev = answer.tweets[i - 1];
      if (!Better(prev.score, prev.tweet, item.score, item.tweet)) {
        return where.str() + "out of order";
      }
    }
    if (facts.Consumed(answer.user, item.tweet, answer.applied_seq)) {
      return where.str() + "authored or retweeted by the user";
    }
    const Timestamp posted = facts.TweetTime(item.tweet);
    if (posted > answer.now || posted + window < answer.now) {
      return where.str() + "not posted within 72 h before now";
    }
    if (facts.FirstTestSeq(item.tweet) > published) {
      return where.str() + "never retweeted in the applied test prefix";
    }
  }
  return "";
}

bool StaleHit(const StreamFacts& facts, const Answer& answer) {
  if (!answer.cache_hit) return false;
  for (const ScoredTweet& item : answer.tweets) {
    if (facts.TweetTime(item.tweet) + kFreshnessWindow < answer.now) return true;
  }
  return false;
}

std::string CheckIdentical(const std::vector<ScoredTweet>& expected,
                           const std::vector<ScoredTweet>& actual) {
  if (expected.size() != actual.size()) {
    return "length " + std::to_string(actual.size()) + " != " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].tweet != actual[i].tweet ||
        expected[i].score != actual[i].score) {
      return "item " + std::to_string(i) + " differs";
    }
  }
  return "";
}

Oracle::Oracle(const Inputs& inputs, const SimGraph& train_snapshot,
               int64_t refresh_events) {
  const Dataset& dataset = inputs.dataset;
  // Events before the first refresh propagate over the post-Train
  // snapshot: the refresh happens while the builder observes event
  // `refresh_events`, before that event propagates.
  const uint64_t last_before_refresh =
      refresh_events > 0 ? static_cast<uint64_t>(refresh_events) - 1 : kNever;
  first_after_refresh_.assign(dataset.tweets.size(), kNever);
  for (size_t i = 0; i < inputs.test.size(); ++i) {
    const uint64_t seq = i + 1;
    const TweetId tweet = inputs.test[i].tweet;
    if (seq <= last_before_refresh) {
      tweets_.insert(tweet);
    } else {
      uint64_t& first = first_after_refresh_[static_cast<size_t>(tweet)];
      first = std::min(first, seq);
    }
  }
  for (const TweetId tweet : tweets_) {
    if (first_after_refresh_[static_cast<size_t>(tweet)] == kNever) {
      ++fully_covered_;
    }
  }

  // Seed carry of SimGraphServingRecommender::Train: training retweets
  // of tweets still fresh at the split seed the first propagation.
  std::unordered_map<TweetId, std::vector<UserId>> seeds;
  if (inputs.train_end > 0) {
    const Timestamp split_time =
        dataset.retweets[static_cast<size_t>(inputs.train_end - 1)].time;
    for (int64_t i = 0; i < inputs.train_end; ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
      if (tweets_.count(e.tweet) == 0) continue;
      if (dataset.tweets[static_cast<size_t>(e.tweet)].time +
              kFreshnessWindow >=
          split_time) {
        seeds[e.tweet].push_back(e.user);
      }
    }
  }

  // Tweets propagate independently: split them over a few threads.
  std::vector<TweetId> ordered(tweets_.begin(), tweets_.end());
  std::sort(ordered.begin(), ordered.end());
  std::unordered_map<TweetId, size_t> part_of;
  for (size_t i = 0; i < ordered.size(); ++i) {
    part_of[ordered[i]] = i % kOracleThreads;
  }
  struct Part {
    std::vector<std::pair<UserId, Entry>> entries;
    int64_t propagations = 0;
  };
  std::vector<Part> parts(kOracleThreads);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kOracleThreads; ++p) {
    threads.emplace_back([&, p] {
      const PropagationOptions options;
      std::unordered_map<TweetId, std::vector<UserId>> part_seeds;
      for (size_t i = 0; i < inputs.test.size() && i < last_before_refresh;
           ++i) {
        const RetweetEvent& e = inputs.test[i];
        const auto it = part_of.find(e.tweet);
        if (it == part_of.end() || it->second != p) continue;
        auto [seeds_it, fresh] = part_seeds.try_emplace(e.tweet);
        if (fresh) {
          const auto carried = seeds.find(e.tweet);
          if (carried != seeds.end()) seeds_it->second = carried->second;
        }
        std::vector<UserId>& tweet_seeds = seeds_it->second;
        tweet_seeds.push_back(e.user);
        const PropagationResult result = testing::ReferencePropagate(
            train_snapshot, tweet_seeds,
            static_cast<int64_t>(tweet_seeds.size()), options);
        ++parts[p].propagations;
        for (const UserScore& us : result.scores) {
          parts[p].entries.push_back({us.user, Entry{e.tweet, i + 1, us.score}});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  by_user_.resize(static_cast<size_t>(dataset.num_users()));
  for (const Part& part : parts) {
    propagations_ += part.propagations;
    for (const auto& [user, entry] : part.entries) {
      by_user_[static_cast<size_t>(user)].push_back(entry);
    }
  }
  for (auto& entries : by_user_) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.tweet != b.tweet ? a.tweet < b.tweet : a.seq < b.seq;
              });
  }
}

double Oracle::ExpectedAt(const std::vector<Entry>& entries, size_t begin,
                          size_t end, uint64_t seq) {
  double best = 0.0;
  for (size_t i = begin; i < end && entries[i].seq <= seq; ++i) {
    best = std::max(best, entries[i].score);
  }
  return best;
}

std::string Oracle::Check(const StreamFacts& facts, const Answer& answer,
                          Timestamp hit_ttl) const {
  const Timestamp visible_by =
      answer.now - (answer.cache_hit ? std::max<Timestamp>(hit_ttl, 0) : 0);
  const std::vector<Entry>& entries =
      by_user_[static_cast<size_t>(answer.user)];
  // The answer reflects some prefix between the reported applied seq
  // and the events published before the reply arrived.
  const uint64_t lo = answer.applied_seq;
  const uint64_t hi = std::max(answer.published_seq, lo);
  const auto range_of = [&](TweetId tweet) {
    const auto begin = std::lower_bound(
        entries.begin(), entries.end(), tweet,
        [](const Entry& e, TweetId t) { return e.tweet < t; });
    auto end = begin;
    while (end != entries.end() && end->tweet == tweet) ++end;
    return std::make_pair(static_cast<size_t>(begin - entries.begin()),
                          static_cast<size_t>(end - entries.begin()));
  };

  std::unordered_set<TweetId> served;
  for (const ScoredTweet& item : answer.tweets) {
    served.insert(item.tweet);
    if (!Covers(item.tweet, hi)) continue;
    const auto [begin, end] = range_of(item.tweet);
    bool matched = ExpectedAt(entries, begin, end, lo) == item.score;
    for (size_t i = begin; i < end && !matched; ++i) {
      if (entries[i].seq > lo && entries[i].seq <= hi) {
        matched = ExpectedAt(entries, begin, end, entries[i].seq) == item.score;
      }
    }
    if (!matched) {
      std::ostringstream out;
      out.precision(17);
      out << Describe(answer) << " tweet " << item.tweet << ": served score "
          << item.score << " != oracle "
          << ExpectedAt(entries, begin, end, lo);
      return out.str();
    }
  }

  for (size_t begin = 0; begin < entries.size();) {
    const TweetId tweet = entries[begin].tweet;
    size_t end = begin;
    while (end < entries.size() && entries[end].tweet == tweet) ++end;
    if (!Covers(tweet, hi)) {
      begin = end;
      continue;
    }
    const double expected = ExpectedAt(entries, begin, end, lo);
    const Timestamp posted = facts.TweetTime(tweet);
    const bool candidate = expected > 0.0 && served.count(tweet) == 0 &&
                           posted <= visible_by &&
                           posted + kFreshnessWindow >= answer.now &&
                           !facts.Consumed(answer.user, tweet, hi);
    if (candidate) {
      const bool full =
          static_cast<int64_t>(answer.tweets.size()) >= answer.k;
      if (!full || Better(expected, tweet, answer.tweets.back().score,
                          answer.tweets.back().tweet)) {
        std::ostringstream out;
        out.precision(17);
        out << Describe(answer) << ": unserved tweet " << tweet
            << " scores " << expected << " above the k-th answer";
        return out.str();
      }
    }
    begin = end;
  }
  return "";
}

std::vector<std::string> SelfTestChecks(const RunContext& context) {
  const Inputs& inputs = *context.inputs;
  const StreamFacts& facts = *context.facts;
  std::vector<std::string> failures;
  // Real answers to plant faults in: the builder's at drain.
  std::vector<Answer> answers;
  {
    Deployment deployment(inputs, kSecondsPerDay, nullptr);
    uint64_t last = 0;
    for (const RetweetEvent& e : inputs.test) {
      last = deployment.service().Publish(e);
    }
    deployment.service().WaitForApplied(last);
    for (const UserId user : inputs.protocol.panel) {
      Answer answer;
      answer.user = user;
      answer.now = inputs.test.back().time;
      answer.applied_seq = last;
      answer.published_seq = last;
      answer.tweets = deployment.service().builder_recommender()->Recommend(
          user, answer.now, kTopK);
      answers.push_back(std::move(answer));
    }
  }
  const auto passes = [&](const Answer& a) {
    return CheckAnswer(facts, a, 0).empty() &&
           context.oracle->Check(facts, a, 0).empty();
  };
  // Each fault must be rejected, and by the check aimed at it.
  const auto expect_rejected = [&](const char* fault, const std::string& why,
                                   const char* expected) {
    const bool rejected = why.find(expected) != std::string::npos;
    std::printf("selftest: planted %-22s %s\n", fault,
                rejected ? ("rejected: " + why).c_str() : "NOT REJECTED");
    if (!rejected) failures.push_back(std::string("accepted ") + fault);
  };

  const Answer* consumed = nullptr;
  TweetId consumed_tweet = 0;
  const Answer* ordered = nullptr;
  const Answer* oracle_answer = nullptr;
  size_t oracle_index = 0;
  for (const Answer& a : answers) {
    if (!passes(a)) {
      failures.push_back("unmodified answer rejected for user " +
                         std::to_string(a.user));
      continue;
    }
    if (consumed == nullptr && !a.tweets.empty() &&
        static_cast<int64_t>(a.tweets.size()) < a.k) {
      for (const RetweetEvent& e : inputs.test) {
        if (e.user == a.user) {
          consumed = &a;
          consumed_tweet = e.tweet;
          break;
        }
      }
    }
    if (ordered == nullptr && a.tweets.size() >= 2 &&
        a.tweets[0].score != a.tweets[1].score) {
      ordered = &a;
    }
    for (size_t i = 0; oracle_answer == nullptr && i < a.tweets.size(); ++i) {
      if (context.oracle->Covers(a.tweets[i].tweet, a.published_seq)) {
        oracle_answer = &a;
        oracle_index = i;
      }
    }
  }
  if (consumed == nullptr || ordered == nullptr || oracle_answer == nullptr) {
    failures.push_back("no answer to plant a fault in");
    return failures;
  }

  Answer fault = *consumed;
  fault.tweets.push_back(
      ScoredTweet{consumed_tweet, fault.tweets.back().score / 2});
  expect_rejected("consumed tweet", CheckAnswer(facts, fault, 0),
                  "authored or retweeted");

  fault = *ordered;
  std::swap(fault.tweets[0], fault.tweets[1]);
  expect_rejected("reordered list", CheckAnswer(facts, fault, 0),
                  "out of order");

  fault = *oracle_answer;
  double& score = fault.tweets[oracle_index].score;
  score = std::nextafter(score, 0.0);
  expect_rejected("perturbed score", context.oracle->Check(facts, fault, 0),
                  "!= oracle");

  std::vector<ScoredTweet> replica = ordered->tweets;
  replica.back().score = std::nextafter(replica.back().score, 0.0);
  expect_rejected("altered replica answer",
                  CheckIdentical(ordered->tweets, replica), "differs");
  return failures;
}

}  // namespace perfbench
}  // namespace simgraph
