#ifndef SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_
#define SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "core/propagation.h"
#include "core/simgraph.h"
#include "core/simgraph_delta.h"
#include "serve/candidate_state.h"
#include "serve/propagation_pool.h"
#include "serve/serving_recommender.h"
#include "store/graph_image.h"
#include "util/metrics.h"

namespace simgraph {
namespace serve {

/// Configuration of the serving-grade SimGraph recommender.
struct ServingSimGraphOptions {
  SimGraphOptions graph;
  PropagationOptions propagation;
  /// Posts older than this are never recommended (72 h per the paper).
  Timestamp freshness_window = 72 * kSecondsPerHour;
  /// Propagated scores below this floor are not deposited.
  double min_deposit_score = 0.0;
  /// Re-materialise the CSR propagation snapshot from the incremental
  /// graph every this many applied events (epoch swap). 0 keeps the
  /// training-time graph forever — which makes the serving recommender
  /// bit-identical to an offline SimGraphRecommender over the same
  /// stream (tests/serve/serving_recommender_test.cc relies on this).
  int64_t snapshot_refresh_events = 0;
  /// Number of lock stripes over users for candidate/consumed state.
  int32_t num_stripes = 64;
  /// Evict stale candidates every this many observed events (mirrors
  /// SimGraphRecommender's fixed 50000 cadence).
  int64_t evict_every = 50000;
  /// When set, Train takes the follow graph from this pinned mmap'd
  /// SGCS image instead of dataset.follow_graph (which may then be
  /// empty — the million-user deployments never materialise graph.txt).
  /// All shards of a ShardedService share the SAME image; see
  /// docs/store.md.
  std::shared_ptr<const store::GraphImage> graph_image;
};

/// The SimGraph recommender restructured for online serving: the
/// similarity graph lives in an IncrementalSimGraph that absorbs every
/// streamed event, while propagation runs over an immutable CSR snapshot
/// that is swapped atomically every `snapshot_refresh_events` events —
/// so reads never block on graph maintenance.
///
/// Under the delta-shipping pipeline (docs/ingest.md) exactly one of
/// these is the DeltaBuilder's source of truth: ObserveBatchRecordingDelta
/// runs the update once and records everything downstream
/// DeltaApplierRecommender shards need to follow along.
///
/// Threading model (enforced by RecommendationService / DeltaBuilder):
///   * ObserveAffected / ObserveRecordingDelta / ObserveBatchRecordingDelta
///     run on exactly one ingest thread; a multi-event batch propagates
///     its events on a small internal PropagationPool meanwhile;
///   * Recommend / RecommendUntil may run concurrently from any number
///     of reader threads (concurrent_reads() is true).
/// Candidate and consumed state is guarded by locks striped over users
/// (see CandidateState).
class SimGraphServingRecommender final : public ServingRecommender {
 public:
  explicit SimGraphServingRecommender(ServingSimGraphOptions options = {});
  ~SimGraphServingRecommender() override;

  std::string name() const override { return "SimGraphServing"; }
  Status Train(const Dataset& dataset, int64_t train_end) override;
  AffectedUsers ObserveAffected(const RetweetEvent& event) override;

  /// ObserveAffected, additionally recording every side effect of the
  /// event into `delta` (appending to its op vectors; the caller owns
  /// batching and seq stamping): graph edge ops, consumed marks, changed
  /// deposits, the eviction watermark, snapshot-refresh epoch swaps, and
  /// the affected users (appended to delta->invalidated unsorted — the
  /// builder finalises). `delta` may be null.
  AffectedUsers ObserveRecordingDelta(const RetweetEvent& event,
                                      SimGraphDelta* delta);

  /// ObserveRecordingDelta over a batch of events, with the same result
  /// and the same recorded delta as one call per event in order (the
  /// affected users go to delta->invalidated only). Runs in three stages:
  /// rescore, refresh check and seed push for every event in order on
  /// this thread; each event's propagation on the pool, over the
  /// snapshot that was current for it; then consumed marks, deposits,
  /// recording and eviction in order on this thread. `delta` may be null.
  void ObserveBatchRecordingDelta(std::span<const RetweetEvent> events,
                                  SimGraphDelta* delta);

  /// Caches the shard-qualified serve.apply.propagation_us histogram so
  /// the ingest loop records per-shard propagation latency without a
  /// registry lookup per event.
  void BindShard(int32_t shard) override;
  std::vector<ScoredTweet> Recommend(UserId user, Timestamp now,
                                     int32_t k) override;
  RecommendOutcome RecommendUntil(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) override;
  bool concurrent_reads() const override { return true; }
  bool GraphStats(uint64_t* epoch, int64_t* edges) const override;

  /// The CSR snapshot propagation currently runs over. The returned
  /// shared_ptr keeps the snapshot alive across epoch swaps.
  std::shared_ptr<const SimGraph> GraphSnapshot() const;

  /// Bumped on every snapshot swap (1 after Train).
  uint64_t graph_epoch() const;

  /// The live incremental graph (single-threaded access only: call while
  /// the ingest thread is quiescent).
  const IncrementalSimGraph& incremental() const { return *incremental_; }

  int64_t num_propagations() const { return num_propagations_; }

  /// The candidate/consumed state (single-threaded access only, like
  /// incremental()).
  const CandidateState& candidate_state() const { return state_; }

 private:
  struct TweetState {
    std::vector<UserId> seeds;
  };

  /// Materialises incremental_ into a fresh snapshot + propagator and
  /// publishes them (epoch swap). Ingest-thread only.
  void RefreshSnapshot();

  /// The staged batch behind both Observe*Delta entry points; appends
  /// each event's affected users to `affected` (unsorted) when non-null.
  void ObserveBatch(std::span<const RetweetEvent> events,
                    SimGraphDelta* delta, std::vector<UserId>* affected);

  ServingSimGraphOptions options_;
  std::unique_ptr<IncrementalSimGraph> incremental_;
  /// Striped candidate/consumed state shared (by construction, not by
  /// reference) with DeltaApplierRecommender replicas.
  CandidateState state_;
  std::unordered_map<TweetId, TweetState> tweet_state_;  // ingest-only
  std::vector<UserId> tweet_author_;  // immutable after Train
  int32_t num_users_ = 0;
  int64_t observed_ = 0;          // ingest-only
  int64_t num_propagations_ = 0;  // ingest-only
  // The batch's propagation jobs, one per event. Only the first slot
  // outlives a batch, so a batch of one (the per-event path) reuses its
  // seed and result capacity and allocates nothing in steady state.
  std::vector<PropagationJob> jobs_;  // ingest-only
  // The ingest thread's scratch, for jobs it runs itself; during a
  // pooled batch the pool lends it to whoever runs a job. Propagator-
  // independent, so it survives swaps.
  PropagationScratch propagation_scratch_;  // ingest-only
  std::vector<uint8_t> deposit_changed_;     // ingest-only, DepositAll out
  // min(2, hardware threads - 1) workers, started by the first batch of
  // more than one event; null before that and on single-core hosts.
  std::unique_ptr<PropagationPool> pool_;  // ingest-only
  bool pool_started_ = false;              // ingest-only
  // Shard-qualified propagation-latency histogram, cached by BindShard;
  // null outside sharded deployments.
  metrics::LatencyHistogram* shard_propagation_us_ = nullptr;

  /// Guards propagation_ / graph_epoch_ publication; the ingest thread
  /// holds it only for the pointer swap, never during the (expensive)
  /// snapshot build.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const PropagationSnapshot> propagation_;
  uint64_t graph_epoch_ = 0;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_
