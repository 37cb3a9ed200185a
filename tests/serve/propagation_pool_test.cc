// PropagationPool under churn: many batches of random size, jobs over two
// alternating snapshots and some with nothing to propagate, each job
// awaited in order while workers claim the rest. Every result must equal
// a sequential Propagate over the job's own snapshot and seeds. Labelled
// `concurrency`, so ThreadSanitizer checks the claim/lend/return
// protocol too.
#include "serve/propagation_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "graph/graph_builder.h"
#include "util/random.h"

namespace simgraph {
namespace serve {
namespace {

std::shared_ptr<const PropagationSnapshot> RandomSnapshot(uint64_t seed,
                                                          NodeId n) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int64_t i = 0; i < 8 * n; ++i) {
    const auto u =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    const auto v =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v, 0.05 + 0.9 * rng.NextDouble());
  }
  auto graph = std::make_shared<SimGraph>();
  graph->graph = b.Build(/*weighted=*/true);
  return std::make_shared<const PropagationSnapshot>(std::move(graph));
}

TEST(PropagationPoolTest, EveryJobMatchesSequentialPropagation) {
  constexpr NodeId kUsers = 300;
  const std::shared_ptr<const PropagationSnapshot> snapshots[] = {
      RandomSnapshot(11, kUsers), RandomSnapshot(12, kUsers)};
  const PropagationOptions options;
  PropagationScratch caller_scratch;
  PropagationPool pool(2, options, &caller_scratch);
  ASSERT_EQ(pool.num_workers(), 2);

  Rng rng(2024);
  PropagationScratch check_scratch;
  int64_t checked = 0;
  for (int batch = 0; batch < 300; ++batch) {
    std::vector<PropagationJob> jobs(1 + rng.NextBounded(16));
    pool.Begin(jobs.data());
    for (size_t i = 0; i < jobs.size(); ++i) {
      PropagationJob& job = jobs[i];
      if (rng.NextBounded(8) != 0) {  // else: an unknown tweet
        job.snapshot = snapshots[rng.NextBounded(2)];
        const uint64_t seeds = 1 + rng.NextBounded(6);
        for (uint64_t s = 0; s < seeds; ++s) {
          job.seeds.push_back(static_cast<UserId>(rng.NextBounded(kUsers)));
        }
      }
      pool.Publish(i + 1);
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      pool.Await(i);
      const PropagationJob& job = jobs[i];
      if (job.snapshot == nullptr) continue;
      const PropagationResult expected = job.snapshot->propagator.Propagate(
          job.seeds, static_cast<int64_t>(job.seeds.size()), options,
          check_scratch);
      ASSERT_EQ(job.result.scores.size(), expected.scores.size());
      for (size_t j = 0; j < expected.scores.size(); ++j) {
        ASSERT_EQ(job.result.scores[j].user, expected.scores[j].user);
        ASSERT_EQ(job.result.scores[j].score, expected.scores[j].score);
      }
      EXPECT_EQ(job.result.updates, expected.updates);
      ++checked;
    }
    pool.End();
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
