#include <algorithm>
#include <cmath>
#include <map>

#include "bench/common.h"
#include "dataset/generator.h"
#include "harness.h"

namespace simgraph {
namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> WindowMedians(
    const std::vector<std::pair<double, double>>& samples, double window_s) {
  std::map<int64_t, std::vector<double>> windows;
  for (const auto& [offset, value] : samples) {
    windows[static_cast<int64_t>(std::floor(offset / window_s))].push_back(
        value);
  }
  std::vector<double> medians;
  for (auto& [window, values] : windows) medians.push_back(Median(values));
  return medians;
}

Inputs MakeInputs(uint64_t seed, bool toy) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.toy = toy;
  // The dataset keeps BenchConfig's own generator seed: across generator
  // seeds the retweet count alone ranges 19k-34k, which makes a
  // different workload per seed rather than a different draw of one.
  DatasetConfig config = bench::BenchConfig();
  if (toy) {
    config.num_users = 800;
    config.num_tweets = 6400;
  }
  inputs.dataset = GenerateDataset(config);
  ProtocolOptions protocol_options = bench::BenchProtocolOptions();
  protocol_options.seed = seed;
  inputs.protocol = MakeProtocol(inputs.dataset, protocol_options);
  inputs.train_end = inputs.protocol.train_end;
  inputs.test.assign(
      inputs.dataset.retweets.begin() + inputs.train_end,
      inputs.dataset.retweets.end());
  return inputs;
}

StreamFacts::StreamFacts(const Inputs& inputs)
    : tweets_(inputs.dataset.tweets),
      first_test_seq_(inputs.dataset.tweets.size(), kNever) {
  for (int64_t i = 0; i < inputs.train_end; ++i) {
    const RetweetEvent& e = inputs.dataset.retweets[static_cast<size_t>(i)];
    retweet_seq_.emplace(Key(e.user, e.tweet), 0);
  }
  for (size_t i = 0; i < inputs.test.size(); ++i) {
    const RetweetEvent& e = inputs.test[i];
    const uint64_t seq = i + 1;
    retweet_seq_.emplace(Key(e.user, e.tweet), seq);  // keeps the first
    uint64_t& first = first_test_seq_[static_cast<size_t>(e.tweet)];
    first = std::min(first, seq);
  }
}

uint64_t StreamFacts::RetweetSeq(UserId user, TweetId tweet) const {
  const auto it = retweet_seq_.find(Key(user, tweet));
  return it == retweet_seq_.end() ? kNever : it->second;
}

}  // namespace perfbench
}  // namespace simgraph
