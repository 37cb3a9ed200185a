#ifndef SIMGRAPH_SERVE_PROPAGATION_POOL_H_
#define SIMGRAPH_SERVE_PROPAGATION_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/propagation.h"
#include "core/simgraph.h"

namespace simgraph {
namespace serve {

/// One snapshot epoch's propagation side: the immutable CSR snapshot and
/// the propagator over it. Shared, so a job queued before an epoch swap
/// keeps its snapshot alive until it has run.
struct PropagationSnapshot {
  explicit PropagationSnapshot(std::shared_ptr<const SimGraph> snapshot)
      : graph(std::move(snapshot)), propagator(*graph) {}

  std::shared_ptr<const SimGraph> graph;
  Propagator propagator;
};

/// One event's propagation: the snapshot that was current when the event
/// was rescored, its own copy of the tweet's seed prefix, and the result.
/// A job without a snapshot has nothing to propagate (unknown tweet).
struct PropagationJob {
  std::shared_ptr<const PropagationSnapshot> snapshot;
  std::vector<UserId> seeds;
  PropagationResult result;
  double us = 0;      // wall time of the PropagateInto call (metrics on)
  bool done = false;  // guarded by the pool's mutex while a batch runs

  /// Runs the propagation into `result` with `scratch`.
  void Run(const PropagationOptions& options, PropagationScratch& scratch);
};

/// A few worker threads that run one batch of propagation jobs at a time
/// while the builder thread keeps rescoring and depositing. Jobs are
/// claimed strictly in index order, by a worker or by the builder itself
/// (Await), so every job runs exactly once. Jobs only read their
/// snapshot, so the order in which they run never changes a result.
///
/// Whoever runs a job borrows one of `num_workers` scratches: the
/// caller's own plus num_workers - 1 owned here, so the pool adds
/// num_workers - 1 scratches of memory. That never stalls the caller:
/// Await runs job i itself only while it is unclaimed, and then every
/// earlier job is done, so no scratch is out.
///
/// One batch at a time, driven by one thread: Begin, Publish as jobs are
/// filled in, Await each job in order, End.
class PropagationPool {
 public:
  /// `caller_scratch` must outlive the pool; the driving thread must not
  /// use it between Begin and End.
  PropagationPool(int num_workers, PropagationOptions options,
                  PropagationScratch* caller_scratch);
  ~PropagationPool();

  PropagationPool(const PropagationPool&) = delete;
  PropagationPool& operator=(const PropagationPool&) = delete;

  /// Starts a batch over jobs[0, n); none is claimable yet. `jobs` must
  /// stay put until End.
  void Begin(PropagationJob* jobs);

  /// Makes jobs[0, count) claimable (count only grows within a batch).
  void Publish(size_t count);

  /// Returns once jobs[i] has run. Runs it on the caller when no worker
  /// has claimed it yet, so the caller never waits on an idle job. Call
  /// in index order.
  void Await(size_t i);

  /// Ends the batch; every published job must have been awaited.
  void End();

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();
  /// Claims jobs_[next_] and a free scratch, runs the job unlocked, then
  /// returns the scratch and marks the job done. `lock` holds mu_.
  void RunNext(std::unique_lock<std::mutex>& lock);

  const PropagationOptions options_;
  std::vector<std::unique_ptr<PropagationScratch>> owned_scratches_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // a job became claimable, or stop
  std::condition_variable done_cv_;  // a worker finished a job
  PropagationJob* jobs_ = nullptr;   // guarded by mu_
  size_t published_ = 0;             // guarded by mu_
  size_t next_ = 0;                  // next unclaimed job; guarded by mu_
  bool stop_ = false;                // guarded by mu_
  std::vector<PropagationScratch*> free_scratches_;  // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_PROPAGATION_POOL_H_
