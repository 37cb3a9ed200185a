#include "serve/simgraph_serving_recommender.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {

SimGraphServingRecommender::SimGraphServingRecommender(
    ServingSimGraphOptions options)
    : options_(std::move(options)) {
  SIMGRAPH_CHECK_GT(options_.num_stripes, 0);
  SIMGRAPH_CHECK_GT(options_.evict_every, 0);
}

SimGraphServingRecommender::~SimGraphServingRecommender() = default;

Status SimGraphServingRecommender::Train(const Dataset& dataset,
                                         int64_t train_end) {
  if (train_end < 0 || train_end > dataset.num_retweets()) {
    return Status::InvalidArgument("train_end out of range");
  }
  // The follow graph is either carried by the dataset or pinned
  // out-of-band as an mmap'd SGCS image every shard shares.
  const Digraph& follow_graph = options_.graph_image != nullptr
                                    ? options_.graph_image->graph()
                                    : dataset.follow_graph;
  if (options_.graph_image != nullptr && dataset.num_users() != 0 &&
      dataset.num_users() != follow_graph.num_nodes()) {
    return Status::InvalidArgument(
        "dataset population disagrees with the bound graph image");
  }
  num_users_ = follow_graph.num_nodes();
  incremental_ =
      std::make_unique<IncrementalSimGraph>(follow_graph, options_.graph);
  SIMGRAPH_RETURN_IF_ERROR(incremental_->Initialize(dataset, train_end));
  RefreshSnapshot();

  tweet_author_.clear();
  tweet_author_.reserve(dataset.tweets.size());
  for (const Tweet& t : dataset.tweets) tweet_author_.push_back(t.author);
  SIMGRAPH_RETURN_IF_ERROR(state_.Init(dataset, train_end,
                                       options_.freshness_window,
                                       options_.num_stripes));

  // Mirror SimGraphRecommender::Train: training retweets are consumed
  // (CandidateState::Init did that), and seed sets of tweets still fresh
  // at the split carry over.
  const Timestamp split_time =
      train_end > 0 ? dataset.retweets[static_cast<size_t>(train_end - 1)].time
                    : 0;
  tweet_state_.clear();
  for (int64_t i = 0; i < train_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    const Timestamp tweet_time =
        dataset.tweets[static_cast<size_t>(e.tweet)].time;
    if (tweet_time + options_.freshness_window >= split_time) {
      tweet_state_[e.tweet].seeds.push_back(e.user);
    }
  }
  observed_ = 0;
  num_propagations_ = 0;
  return Status::Ok();
}

void SimGraphServingRecommender::RefreshSnapshot() {
  SIMGRAPH_TRACE_SPAN("SimGraphServingRecommender::RefreshSnapshot", "serve");
  auto propagation = std::make_shared<const PropagationSnapshot>(
      std::make_shared<const SimGraph>(incremental_->Snapshot()));
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    propagation_ = std::move(propagation);
    ++graph_epoch_;
    SIMGRAPH_GAUGE_SET("serve.snapshot.epoch",
                       static_cast<double>(graph_epoch_));
  }
  SIMGRAPH_COUNTER_ADD("serve.snapshot.refreshes", 1);
}

void SimGraphServingRecommender::BindShard(int32_t shard) {
  if (shard < 0) return;
  shard_propagation_us_ = &metrics::Registry::Global().histogram(
      metrics::ShardMetricName("serve.apply.propagation_us", shard));
}

AffectedUsers SimGraphServingRecommender::ObserveAffected(
    const RetweetEvent& event) {
  return ObserveRecordingDelta(event, nullptr);
}

AffectedUsers SimGraphServingRecommender::ObserveRecordingDelta(
    const RetweetEvent& event, SimGraphDelta* delta) {
  AffectedUsers affected;
  ObserveBatch({&event, 1}, delta, &affected.users);
  std::sort(affected.users.begin(), affected.users.end());
  affected.users.erase(
      std::unique(affected.users.begin(), affected.users.end()),
      affected.users.end());
  if (delta != nullptr) {
    delta->invalidated.insert(delta->invalidated.end(),
                              affected.users.begin(), affected.users.end());
  }
  return affected;
}

void SimGraphServingRecommender::ObserveBatchRecordingDelta(
    std::span<const RetweetEvent> events, SimGraphDelta* delta) {
  ObserveBatch(events, delta, delta != nullptr ? &delta->invalidated : nullptr);
}

void SimGraphServingRecommender::ObserveBatch(
    std::span<const RetweetEvent> events, SimGraphDelta* delta,
    std::vector<UserId>* affected) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  if (events.empty()) return;
  if (events.size() > 1 && !pool_started_) {
    pool_started_ = true;
    const int workers = std::min(
        2, static_cast<int>(std::thread::hardware_concurrency()) - 1);
    if (workers > 0) {
      pool_ = std::make_unique<PropagationPool>(
          workers, options_.propagation, &propagation_scratch_);
    }
  }
  PropagationPool* const pool = events.size() > 1 ? pool_.get() : nullptr;
  if (jobs_.size() < events.size()) jobs_.resize(events.size());
  if (pool != nullptr) pool->Begin(jobs_.data());

  // Stage R, in event order: rescore, refresh check, seed push. Each job
  // captures the snapshot current for its event, so a refresh later in
  // the batch does not change what an earlier event propagates over.
  const int64_t first_observed = observed_;
  for (size_t i = 0; i < events.size(); ++i) {
    const RetweetEvent& event = events[i];
    PropagationJob& job = jobs_[i];
    job.done = false;
    job.snapshot.reset();
    // The similarity graph absorbs every event, known tweet or not: new
    // posts keep shaping user-user similarity even before they are part
    // of the recommendable catalogue.
    incremental_->Apply(event, delta);
    ++observed_;
    if (options_.snapshot_refresh_events > 0 &&
        observed_ % options_.snapshot_refresh_events == 0) {
      SIMGRAPH_SCOPED_LATENCY("serve.snapshot.refresh_seconds");
      RefreshSnapshot();
      if (delta != nullptr) {
        delta->flags |= SimGraphDelta::kFlagSnapshotRefresh;
        delta->snapshot_epoch = graph_epoch();
        delta->snapshot = GraphSnapshot();
      }
    }
    if (event.tweet >= 0 &&
        event.tweet < static_cast<int64_t>(tweet_author_.size())) {
      std::vector<UserId>& seeds = tweet_state_[event.tweet].seeds;
      seeds.push_back(event.user);
      job.seeds.assign(seeds.begin(), seeds.end());
      job.snapshot = propagation_;  // written only on this thread
    }
    if (pool != nullptr) pool->Publish(i + 1);
  }

  // Stage D, in event order: each event's propagation (waited for, or
  // run here when no worker claimed it), then its consumed marks,
  // deposits, recording and eviction.
  const bool metrics_on = metrics::Enabled();
  for (size_t i = 0; i < events.size(); ++i) {
    const RetweetEvent& event = events[i];
    PropagationJob& job = jobs_[i];
    if (pool != nullptr) {
      pool->Await(i);
    } else {
      job.Run(options_.propagation, propagation_scratch_);
    }
    if (job.snapshot == nullptr) {
      // Unknown to the tweet catalogue: no author/timestamp, so it cannot
      // be recommended yet; only the graph learned from it.
      SIMGRAPH_COUNTER_ADD("serve.ingest.unknown_tweets", 1);
      continue;
    }
    if (metrics_on) {
      SIMGRAPH_HISTOGRAM_RECORD("serve.apply.propagation_us", job.us);
      if (shard_propagation_us_ != nullptr) {
        shard_propagation_us_->Record(job.us);
      }
    }
    ++num_propagations_;
    const UserId author = tweet_author_[static_cast<size_t>(event.tweet)];
    state_.MarkConsumed(event.user, event.tweet);
    state_.MarkConsumed(author, event.tweet);
    if (affected != nullptr) {
      affected->push_back(event.user);
      affected->push_back(author);
    }
    if (delta != nullptr) {
      delta->consumed.push_back({event.user, event.tweet});
      delta->consumed.push_back({author, event.tweet});
    }
    const std::vector<UserScore>& scores = job.result.scores;
    state_.DepositAll(event.tweet, scores, options_.min_deposit_score,
                      &deposit_changed_);
    for (size_t j = 0; j < scores.size(); ++j) {
      if (!deposit_changed_[j]) continue;
      if (affected != nullptr) affected->push_back(scores[j].user);
      if (delta != nullptr) {
        delta->deposits.push_back(
            {scores[j].user, event.tweet, scores[j].score});
      }
    }

    // Stale candidates are invisible to TopK, so evicting them never
    // changes an answer — no invalidation needed.
    const int64_t observed = first_observed + static_cast<int64_t>(i) + 1;
    if (observed % options_.evict_every == 0) {
      state_.EvictStale(event.time);
      if (delta != nullptr) delta->evict_before = event.time;
    }
  }
  if (pool != nullptr) pool->End();
  // Only the first slot keeps its capacity between batches; every job
  // drops its snapshot so a swapped-out epoch is freed.
  jobs_.resize(1);
  jobs_[0].snapshot.reset();
}

std::vector<ScoredTweet> SimGraphServingRecommender::Recommend(UserId user,
                                                               Timestamp now,
                                                               int32_t k) {
  return RecommendUntil(user, now, k,
                        std::chrono::steady_clock::time_point::max())
      .tweets;
}

RecommendOutcome SimGraphServingRecommender::RecommendUntil(
    UserId user, Timestamp now, int32_t k,
    std::chrono::steady_clock::time_point deadline) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  return state_.ScanTopK(user, now, k, deadline);
}

std::shared_ptr<const SimGraph> SimGraphServingRecommender::GraphSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return propagation_ != nullptr ? propagation_->graph : nullptr;
}

uint64_t SimGraphServingRecommender::graph_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return graph_epoch_;
}

bool SimGraphServingRecommender::GraphStats(uint64_t* epoch,
                                            int64_t* edges) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (propagation_ == nullptr) return false;
  *epoch = graph_epoch_;
  *edges = propagation_->graph->graph.num_edges();
  return true;
}

}  // namespace serve
}  // namespace simgraph
