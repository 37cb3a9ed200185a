#include <stdexcept>

#include "bench/common.h"
#include "core/simgraph_delta.h"
#include "harness.h"
#include "serve/delta_applier.h"

namespace simgraph {
namespace perfbench {
namespace {

void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

}  // namespace

Deployment::Deployment(const Inputs& inputs, Timestamp ttl,
                       SetupTimes* times,
                       std::vector<std::pair<uint64_t, uint64_t>>* batches) {
  const Clock::time_point start = Clock::now();
  // simgraph_served --replication-port 0 with its defaults.
  serve::ReplicationFanoutOptions fanout_options;
  fanout_options.max_lag_events = 65536;
  fanout_options.ack_stall_timeout_ms = 10000;
  fanout_ = std::make_unique<serve::ReplicationFanout>(fanout_options);

  serve::ShardedServiceOptions options;
  options.num_shards = 1;
  options.shard_options.cache_ttl = ttl;
  options.replication = fanout_.get();
  if (batches != nullptr) {
    options.delta_observer = [batches](const SimGraphDelta& delta) {
      batches->emplace_back(delta.seq_begin, delta.seq_end);
    };
  }
  serve::ServingSimGraphOptions simgraph_options;
  simgraph_options.graph = bench::BenchSimGraphOptions();
  simgraph_options.snapshot_refresh_events = kRefreshEvents;
  service_ =
      std::make_unique<serve::ShardedService>(simgraph_options, options);
  const Clock::time_point train_start = Clock::now();
  Require(service_->Train(inputs.dataset, inputs.train_end), "train");
  const Clock::time_point train_end = Clock::now();
  Require(fanout_->Start(), "replication listen");
  service_->Start();
  server_ = std::make_unique<serve::TcpServer>(service_.get());
  Require(server_->Start(0), "tcp listen");

  // The remote replica, wired as tools/simgraph_shard_server wires it.
  const Clock::time_point replica_start = Clock::now();
  serve::ReplicationClientOptions client_options;
  client_options.port = fanout_->port();
  client_options.name = "perfbench-replica";
  client_ = std::make_unique<serve::ReplicationClient>(client_options);
  serve::ReplicationBootstrap bootstrap;
  Require(client_->Connect(/*applied_seq=*/0, &bootstrap), "replica connect");
  serve::DeltaApplierOptions applier_options;
  auto applier =
      std::make_unique<serve::DeltaApplierRecommender>(applier_options);
  serve::DeltaApplierRecommender* applier_ptr = applier.get();
  serve::ServiceOptions replica_options;
  replica_options.cache_ttl = ttl;
  replica_service_ = std::make_unique<serve::RecommendationService>(
      std::move(applier), replica_options);
  Require(replica_service_->Train(inputs.dataset, inputs.train_end),
          "replica train");
  applier_ptr->SeedRemoteGraphStats(bootstrap.graph_epoch,
                                    bootstrap.graph_edges);
  replica_service_->Start();
  client_->Start(replica_service_.get());
  if (!fanout_->WaitForReplicas(1, std::chrono::seconds(30))) {
    throw std::runtime_error("replica did not register");
  }
  const Clock::time_point ready = Clock::now();
  if (times != nullptr) {
    times->total_s = Seconds(ready - start);
    times->train_s = Seconds(train_end - train_start);
    times->replica_s = Seconds(ready - replica_start);
  }
}

Deployment::~Deployment() {
  // simgraph_served's shutdown order, then the replica: the fanout's BYE
  // ends the replica's connection after every buffered delta shipped.
  if (service_ != nullptr) service_->Stop();
  if (server_ != nullptr) server_->Stop();
  if (fanout_ != nullptr) fanout_->Stop();
  if (client_ != nullptr) client_->Stop();
  if (replica_service_ != nullptr) replica_service_->Stop();
}

}  // namespace perfbench
}  // namespace simgraph
