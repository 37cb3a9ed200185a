#include "serve/propagation_pool.h"

#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace simgraph {
namespace serve {

void PropagationJob::Run(const PropagationOptions& options,
                         PropagationScratch& scratch) {
  if (snapshot == nullptr) return;
  const bool metrics_on = metrics::Enabled();
  WallTimer timer;
  snapshot->propagator.PropagateInto(
      seeds, static_cast<int64_t>(seeds.size()), options, scratch, &result);
  if (metrics_on) us = timer.ElapsedSeconds() * 1e6;
}

PropagationPool::PropagationPool(int num_workers, PropagationOptions options,
                                 PropagationScratch* caller_scratch)
    : options_(std::move(options)) {
  SIMGRAPH_CHECK_GT(num_workers, 0);
  SIMGRAPH_CHECK(caller_scratch != nullptr);
  free_scratches_.push_back(caller_scratch);
  for (int i = 1; i < num_workers; ++i) {
    owned_scratches_.push_back(std::make_unique<PropagationScratch>());
    free_scratches_.push_back(owned_scratches_.back().get());
  }
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PropagationPool::~PropagationPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void PropagationPool::Begin(PropagationJob* jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_ = jobs;
  published_ = 0;
  next_ = 0;
}

void PropagationPool::Publish(size_t count) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    published_ = count;
  }
  work_cv_.notify_one();
}

void PropagationPool::Await(size_t i) {
  std::unique_lock<std::mutex> lock(mu_);
  SIMGRAPH_CHECK_LT(i, published_);
  if (next_ == i) {
    // Unclaimed: no worker got to it, so running it here beats waiting.
    // Every earlier job is done, so every scratch is back.
    SIMGRAPH_CHECK(!free_scratches_.empty());
    RunNext(lock);
    return;
  }
  done_cv_.wait(lock, [&] { return jobs_[i].done; });
}

void PropagationPool::End() {
  std::lock_guard<std::mutex> lock(mu_);
  SIMGRAPH_CHECK_EQ(next_, published_);
  jobs_ = nullptr;
  published_ = 0;
  next_ = 0;
}

void PropagationPool::RunNext(std::unique_lock<std::mutex>& lock) {
  PropagationJob& job = jobs_[next_++];
  PropagationScratch* scratch = free_scratches_.back();
  free_scratches_.pop_back();
  // More claimable work than this runner: pass a wake-up on.
  if (next_ < published_ && !free_scratches_.empty()) work_cv_.notify_one();
  lock.unlock();
  job.Run(options_, *scratch);
  lock.lock();
  free_scratches_.push_back(scratch);
  job.done = true;
  done_cv_.notify_all();
  if (next_ < published_) work_cv_.notify_one();
}

void PropagationPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || (next_ < published_ && !free_scratches_.empty());
    });
    if (stop_) return;
    RunNext(lock);
  }
}

}  // namespace serve
}  // namespace simgraph
