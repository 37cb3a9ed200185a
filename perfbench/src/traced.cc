// The traced run: replays a workload's operations single-threaded
// through the public layer functions the service calls, in the same
// order, with a span around each call and the work counter read at the
// same boundary. Shadow IncrementalSimGraph / Propagator / CandidateState
// calls fed the same stream split the DeltaBuilder's per-event time into
// rescore, propagation and deposit; what they leave uncovered is
// reported as unattributed. Spans live in memory and are folded into the
// per-layer table when the replay ends.
#include <algorithm>
#include <unordered_map>

#include "bench/common.h"
#include "core/incremental.h"
#include "core/propagation.h"
#include "core/simgraph_delta.h"
#include "harness.h"
#include "serve/binary_wire.h"
#include "serve/candidate_state.h"
#include "serve/delta_applier.h"
#include "serve/result_cache.h"
#include "serve/simgraph_serving_recommender.h"
#include "serve/wire_protocol.h"
#include "util/random.h"

namespace simgraph {
namespace perfbench {
namespace {

/// Total time and calls per span name.
class SpanLog {
 public:
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    Total& total = totals_[name];
    total.us += Micros(end - start);
    ++total.calls;
  }
  double Us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.us;
  }
  int64_t Calls(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.calls;
  }

 private:
  struct Total {
    double us = 0;
    int64_t calls = 0;
  };
  std::unordered_map<std::string, Total> totals_;
};

/// Times one call into `log` under `name` when tracing is on.
template <typename F>
auto Span(SpanLog* log, const char* name, F&& call) {
  if (log == nullptr) return call();
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    log->Record(name, start, Clock::now());
  } else {
    auto result = call();
    log->Record(name, start, Clock::now());
    return result;
  }
}

serve::ServingSimGraphOptions BuilderOptions() {
  serve::ServingSimGraphOptions options;
  options.graph = bench::BenchSimGraphOptions();
  options.snapshot_refresh_events = kRefreshEvents;
  return options;
}

/// Work counters read at the layer boundaries.
struct Counters {
  int64_t pairs_rescored = 0;
  int64_t edge_ops = 0;
  int64_t updates = 0;
  int64_t seeds = 0;
  int64_t deposits = 0;        // CandidateState deposits that changed a score
  int64_t delta_deposits = 0;  // deposit ops in the replayed deltas
  int64_t delta_bytes = 0;
  int64_t apply_ops = 0;
  int64_t invalidations = 0;
  int64_t requests = 0;
  int64_t hits = 0;
  int64_t returned = 0;
  int64_t reply_bytes = 0;
};

/// The shadow pipeline: the same stream through IncrementalSimGraph,
/// Propagator and CandidateState directly, so the builder's time can be
/// split by stage.
class Shadow {
 public:
  explicit Shadow(const Inputs& inputs)
      : inputs_(inputs), options_(BuilderOptions()) {}

  /// Times the set-up layers; returns {graph build s, candidate init s}.
  std::pair<double, double> Init() {
    const Clock::time_point a = Clock::now();
    incremental_ = std::make_unique<IncrementalSimGraph>(
        inputs_.dataset.follow_graph, options_.graph);
    if (!incremental_->Initialize(inputs_.dataset, inputs_.train_end).ok()) {
      return {0, 0};
    }
    snapshot_ = std::make_shared<const SimGraph>(incremental_->Snapshot());
    propagator_ = std::make_unique<Propagator>(*snapshot_);
    const Clock::time_point b = Clock::now();
    (void)state_.Init(inputs_.dataset, inputs_.train_end,
                      options_.freshness_window, options_.num_stripes);
    const Clock::time_point c = Clock::now();
    const int64_t train_end = inputs_.train_end;
    const Timestamp split_time =
        train_end > 0
            ? inputs_.dataset.retweets[static_cast<size_t>(train_end - 1)].time
            : 0;
    for (int64_t i = 0; i < train_end; ++i) {
      const RetweetEvent& e = inputs_.dataset.retweets[static_cast<size_t>(i)];
      if (inputs_.dataset.tweets[static_cast<size_t>(e.tweet)].time +
              options_.freshness_window >=
          split_time) {
        seeds_[e.tweet].push_back(e.user);
      }
    }
    return {Seconds(b - a), Seconds(c - b)};
  }

  void Observe(const RetweetEvent& e, SpanLog* log, Counters* counters) {
    const int64_t rescored_before = incremental_->stats().pairs_rescored;
    Span(log, "core.incremental", [&] { incremental_->Apply(e); });
    counters->pairs_rescored +=
        incremental_->stats().pairs_rescored - rescored_before;
    if (++observed_ % kRefreshEvents == 0) {
      Span(log, "serve.delta_builder.refresh", [&] {
        snapshot_ = std::make_shared<const SimGraph>(incremental_->Snapshot());
        propagator_ = std::make_unique<Propagator>(*snapshot_);
      });
    }
    std::vector<UserId>& seeds = seeds_[e.tweet];
    seeds.push_back(e.user);
    Span(log, "core.propagation", [&] {
      propagator_->PropagateInto(seeds, static_cast<int64_t>(seeds.size()),
                                 options_.propagation, scratch_, &result_);
    });
    counters->updates += result_.updates;
    counters->seeds += static_cast<int64_t>(seeds.size());
    const UserId author =
        inputs_.dataset.tweets[static_cast<size_t>(e.tweet)].author;
    Span(log, "serve.candidate_state.deposit", [&] {
      state_.MarkConsumed(e.user, e.tweet);
      state_.MarkConsumed(author, e.tweet);
      for (const UserScore& us : result_.scores) {
        if (us.score < options_.min_deposit_score) continue;
        if (state_.Deposit(us.user, e.tweet, us.score)) ++counters->deposits;
      }
    });
  }

 private:
  const Inputs& inputs_;
  serve::ServingSimGraphOptions options_;
  std::unique_ptr<IncrementalSimGraph> incremental_;
  std::shared_ptr<const SimGraph> snapshot_;
  std::unique_ptr<Propagator> propagator_;
  serve::CandidateState state_;
  std::unordered_map<TweetId, std::vector<UserId>> seeds_;
  PropagationScratch scratch_;
  PropagationResult result_;
  int64_t observed_ = 0;
};

/// The service's per-shard state, driven directly: the builder's
/// recommender, one delta-applying shard and its result cache.
class Replay {
 public:
  Replay(const Inputs& inputs, Timestamp ttl) : inputs_(inputs) {
    builder_ = std::make_unique<serve::SimGraphServingRecommender>(
        BuilderOptions());
    (void)builder_->Train(inputs.dataset, inputs.train_end);
    (void)applier_.Train(inputs.dataset, inputs.train_end);
    applier_.SeedSnapshot(builder_->GraphSnapshot(), builder_->graph_epoch());
    if (ttl >= 0) {
      cache_ = std::make_unique<serve::ResultCache>(inputs.dataset.num_users(),
                                                    ttl);
    }
  }

  /// Ingest of one delta batch, events first..last: ObserveRecordingDelta
  /// per event into one delta -> SerializeTo -> Parse -> ApplyDelta ->
  /// ResultCache::Invalidate, the DeltaBuilder + shard path.
  void Batch(uint64_t first, uint64_t last, SpanLog* log,
             Counters* counters) {
    Span(log, "serve.delta_builder", [&] {
      delta_.Clear();
      delta_.seq_begin = first;
      delta_.seq_end = last;
      for (uint64_t seq = first; seq <= last; ++seq) {
        builder_->ObserveRecordingDelta(
            inputs_.test[static_cast<size_t>(seq - 1)], &delta_);
      }
      std::sort(delta_.invalidated.begin(), delta_.invalidated.end());
      delta_.invalidated.erase(
          std::unique(delta_.invalidated.begin(), delta_.invalidated.end()),
          delta_.invalidated.end());
    });
    counters->edge_ops += delta_.num_edge_ops();
    counters->delta_deposits += static_cast<int64_t>(delta_.deposits.size());
    Span(log, "core.simgraph_delta.encode", [&] {
      bytes_.clear();
      delta_.SerializeTo(&bytes_);
    });
    counters->delta_bytes += static_cast<int64_t>(bytes_.size());
    Span(log, "core.simgraph_delta.decode",
         [&] { (void)SimGraphDelta::Parse(bytes_, &parsed_); });
    // In-process shards receive the snapshot pointer with the delta.
    parsed_.snapshot = delta_.snapshot;
    Span(log, "serve.delta_applier",
         [&] { (void)applier_.ApplyDelta(parsed_); });
    counters->apply_ops += static_cast<int64_t>(parsed_.deposits.size() +
                                                parsed_.consumed.size());
    if (cache_ != nullptr) {
      Span(log, "serve.result_cache.invalidate", [&] {
        for (const UserId user : parsed_.invalidated) cache_->Invalidate(user);
      });
      counters->invalidations +=
          static_cast<int64_t>(parsed_.invalidated.size());
    }
  }

  /// Request: parse -> ResultCache::Get -> RecommendUntil -> Put ->
  /// format, in the protocol the workload speaks.
  void Request(UserId user, Timestamp now, bool binary, SpanLog* log,
               Counters* counters) {
    serve::WireRequest wire;
    wire.op = serve::WireRequest::Op::kRecommend;
    wire.user = user;
    wire.now = now;
    wire.k = kTopK;
    request_bytes_.clear();
    if (binary) {
      serve::AppendBinaryRequest(&request_bytes_, wire);
    } else {
      request_bytes_ = "{\"op\":\"recommend\",\"user\":" +
                       std::to_string(user) + ",\"now\":" +
                       std::to_string(now) + ",\"k\":" +
                       std::to_string(kTopK) + "}";
    }
    serve::WireRequest parsed;
    Span(log, binary ? "serve.binary_wire.parse" : "serve.wire_protocol.parse",
         [&] {
           if (binary) {
             const serve::BinaryDecodeResult frame =
                 serve::DecodeBinaryFrame(request_bytes_);
             parsed = *serve::ParseBinaryRequest(frame.frame.op,
                                                 frame.frame.payload);
           } else {
             parsed = *serve::ParseRequestLine(request_bytes_);
           }
         });
    std::vector<ScoredTweet> tweets;
    bool hit = false;
    uint64_t version = 0;
    if (cache_ != nullptr) {
      Span(log, "serve.result_cache.get", [&] {
        serve::ResultCache::Lookup lookup =
            cache_->Get(parsed.user, parsed.now, parsed.k);
        hit = lookup.hit;
        version = lookup.version;
        if (hit) tweets = std::move(lookup.tweets);
      });
    }
    ++counters->requests;
    if (hit) {
      ++counters->hits;
    } else {
      Span(log, "serve.candidate_state.scan", [&] {
        tweets = applier_
                     .RecommendUntil(parsed.user, parsed.now, parsed.k,
                                     Clock::time_point::max())
                     .tweets;
      });
      counters->returned += static_cast<int64_t>(tweets.size());
      if (cache_ != nullptr) {
        Span(log, "serve.result_cache.put", [&] {
          (void)cache_->Put(parsed.user, parsed.now, parsed.k, tweets,
                            version);
        });
      }
    }
    reply_.clear();
    Span(log,
         binary ? "serve.binary_wire.format" : "serve.wire_protocol.format",
         [&] {
           if (binary) {
             serve::AppendBinaryRecommendResponse(&reply_, parsed.user, 0,
                                                  tweets, hit, false, 0);
           } else {
             serve::AppendRecommendResponse(&reply_, parsed.user, 0, tweets,
                                            hit, false, 0);
           }
         });
    counters->reply_bytes += static_cast<int64_t>(reply_.size());
  }

 private:
  const Inputs& inputs_;
  std::unique_ptr<serve::SimGraphServingRecommender> builder_;
  serve::DeltaApplierRecommender applier_;
  std::unique_ptr<serve::ResultCache> cache_;
  SimGraphDelta delta_;
  SimGraphDelta parsed_;
  std::string bytes_;
  std::string request_bytes_;
  std::string reply_;
};

/// Per-event ingest time of the two replays.
struct PassTimes {
  double untraced_us = 0;
  double traced_us = 0;
};

/// Runs the workload's operations through two identical replays in
/// lockstep — one untraced, one recording spans into `log` — alternating
/// which goes first, so both see the same machine and the gap between
/// their per-event ingest times is the tracing overhead. Events are
/// ingested in `batches`, the deltas the service built on the same
/// stream; the shadow follows each event under the same conditions.
PassTimes ReplayWorkload(
    const RunContext& context, const std::string& workload,
    const std::vector<std::pair<uint64_t, uint64_t>>& batches, SpanLog* log,
    Counters* counters, Shadow* shadow) {
  const Inputs& inputs = *context.inputs;
  Replay plain(inputs, context.ttl);
  Replay traced(inputs, context.ttl);
  Counters plain_counters;
  const int64_t warm = WarmEvents(workload, inputs, context.seconds);
  const ZipfUsers users(inputs);
  Rng live_rng(inputs.seed * 7919 + 101);
  PassTimes times;
  int64_t events = 0;
  const auto request = [&](UserId user, Timestamp now, bool binary) {
    plain.Request(user, now, binary, nullptr, &plain_counters);
    traced.Request(user, now, binary, log, counters);
  };
  for (size_t b = 0; b < batches.size(); ++b) {
    const auto [first, last] = batches[b];
    const auto run_plain = [&] {
      const Clock::time_point start = Clock::now();
      plain.Batch(first, last, nullptr, &plain_counters);
      times.untraced_us += Micros(Clock::now() - start);
    };
    const auto run_traced = [&] {
      const Clock::time_point start = Clock::now();
      traced.Batch(first, last, log, counters);
      times.traced_us += Micros(Clock::now() - start);
    };
    if (b % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    for (uint64_t seq = first; seq <= last; ++seq) {
      const RetweetEvent& e = inputs.test[static_cast<size_t>(seq - 1)];
      shadow->Observe(e, log, counters);
      ++events;
      // live_mixed's paced phase: the reads of each event slot.
      if (workload == "live_mixed" && static_cast<int64_t>(seq) > warm) {
        for (int r = 0; r < kLiveReadsPerEvent; ++r) {
          request(users.Draw(live_rng.NextDouble()), e.time, /*binary=*/true);
        }
      }
    }
  }

  const std::vector<UserId>& panel = inputs.protocol.panel;
  if (workload == "ingest_flat") {
    for (const UserId user : panel) {
      request(user, inputs.test.back().time, /*binary=*/true);
    }
  } else if (workload == "read_scan") {
    Rng rng(inputs.seed * 7919 + 1);
    const Timestamp now = inputs.test[static_cast<size_t>(warm - 1)].time;
    for (int32_t r = 0; r < 20000; ++r) {
      request(panel[static_cast<size_t>(rng.NextBounded(panel.size()))], now,
              /*binary=*/false);
    }
  }
  times.untraced_us /= static_cast<double>(std::max<int64_t>(1, events));
  times.traced_us /= static_cast<double>(std::max<int64_t>(1, events));
  return times;
}

/// True when `batches` cover events 1..events in order, each once.
bool Tiles(const std::vector<std::pair<uint64_t, uint64_t>>& batches,
           int64_t events) {
  uint64_t next = 1;
  for (const auto& [first, last] : batches) {
    if (first != next || last < first) return false;
    next = last + 1;
  }
  return next == static_cast<uint64_t>(events) + 1;
}

}  // namespace

std::map<std::string, std::pair<double, std::string>> TracedRun(
    const RunContext& context, const std::string& workload,
    const RoundResult& service_round, std::vector<std::string>* failures) {
  const Inputs& inputs = *context.inputs;
  SpanLog log;
  Counters c;
  Shadow shadow(inputs);
  const auto [build_s, init_s] = shadow.Init();
  const int64_t n = static_cast<int64_t>(inputs.test.size());
  const int64_t ingested =
      workload == "read_scan" ? WarmEvents(workload, inputs, context.seconds)
                              : n;
  // The replay ingests in the deltas the service built.
  if (!Tiles(service_round.batches, ingested)) {
    failures->push_back("recorded delta batches do not cover events 1.." +
                        std::to_string(ingested));
    return {};
  }
  const PassTimes times = ReplayWorkload(context, workload,
                                         service_round.batches, &log, &c,
                                         &shadow);
  const double events = static_cast<double>(ingested);
  const auto per_event = [&](const char* span) { return log.Us(span) / events; };
  const auto per_call = [&](const char* span) {
    const int64_t calls = log.Calls(span);
    return calls > 0 ? log.Us(span) / static_cast<double>(calls) : 0.0;
  };
  const double requests = std::max<double>(1, static_cast<double>(c.requests));
  const double misses =
      std::max<double>(1, static_cast<double>(c.requests - c.hits));

  // The traced counters must equal the service's own on the same stream.
  const auto expect = [&](const char* what, double traced, double service) {
    if (traced != service) {
      failures->push_back(std::string("traced ") + what + " " +
                          std::to_string(traced) + " != service " +
                          std::to_string(service));
    }
  };
  expect("deposits", static_cast<double>(c.delta_deposits),
         service_round.counted_deposits);
  expect("edge ops", static_cast<double>(c.edge_ops),
         service_round.counted_edges);
  expect("propagation updates", static_cast<double>(c.updates),
         service_round.counted_updates);

  const double builder = per_event("serve.delta_builder");
  const double covered = per_event("core.incremental") +
                         per_event("core.propagation") +
                         per_event("serve.candidate_state.deposit") +
                         per_event("serve.delta_builder.refresh");
  std::map<std::string, std::pair<double, std::string>> m;
  m["core.incremental.us_per_event"] = {per_event("core.incremental"), "us"};
  m["core.incremental.pairs_rescored"] = {
      static_cast<double>(c.pairs_rescored), "count"};
  m["core.incremental.edge_ops"] = {static_cast<double>(c.edge_ops), "count"};
  m["core.propagation.us_per_event"] = {per_event("core.propagation"), "us"};
  m["core.propagation.updates"] = {static_cast<double>(c.updates), "count"};
  m["core.propagation.seeds"] = {static_cast<double>(c.seeds), "count"};
  m["core.propagation.ns_per_update"] = {
      c.updates > 0 ? log.Us("core.propagation") * 1e3 /
                          static_cast<double>(c.updates)
                    : 0.0,
      "ns"};
  m["serve.candidate_state.deposit_us_per_event"] = {
      per_event("serve.candidate_state.deposit"), "us"};
  m["serve.candidate_state.deposits"] = {static_cast<double>(c.deposits),
                                         "count"};
  m["serve.candidate_state.scan_us"] = {per_call("serve.candidate_state.scan"),
                                        "us"};
  m["serve.candidate_state.returned"] = {
      static_cast<double>(c.returned) / misses, "count"};
  m["serve.delta_builder.us_per_event"] = {builder, "us"};
  m["serve.delta_builder.unattributed_us"] = {builder - covered, "us"};
  m["serve.delta_builder.batch_events"] = {
      service_round.counted_batches > 0
          ? service_round.batched_events / service_round.counted_batches
          : 0.0,
      "count"};
  m["serve.delta_builder.refresh_ms"] = {
      per_call("serve.delta_builder.refresh") / 1e3, "ms"};
  m["core.simgraph_delta.encode_us"] = {
      per_event("core.simgraph_delta.encode"), "us"};
  m["core.simgraph_delta.decode_us"] = {
      per_event("core.simgraph_delta.decode"), "us"};
  m["core.simgraph_delta.bytes"] = {
      static_cast<double>(c.delta_bytes) / events, "bytes"};
  m["serve.delta_applier.apply_us"] = {per_event("serve.delta_applier"), "us"};
  m["serve.delta_applier.ops"] = {static_cast<double>(c.apply_ops), "count"};
  m["serve.result_cache.get_ns"] = {per_call("serve.result_cache.get") * 1e3,
                                    "ns"};
  m["serve.result_cache.hit_ratio"] = {
      static_cast<double>(c.hits) / requests, "ratio"};
  m["serve.result_cache.invalidations"] = {
      static_cast<double>(c.invalidations), "count"};
  m["serve.wire_protocol.parse_ns"] = {
      per_call("serve.wire_protocol.parse") * 1e3, "ns"};
  m["serve.wire_protocol.format_us"] = {per_call("serve.wire_protocol.format"),
                                        "us"};
  m["serve.binary_wire.parse_ns"] = {per_call("serve.binary_wire.parse") * 1e3,
                                     "ns"};
  m["serve.binary_wire.format_us"] = {per_call("serve.binary_wire.format"),
                                      "us"};
  const bool binary = workload != "read_scan";
  m[binary ? "serve.binary_wire.reply_bytes" : "serve.wire_protocol.reply_bytes"] =
      {static_cast<double>(c.reply_bytes) / requests, "bytes"};
  m[binary ? "serve.wire_protocol.reply_bytes" : "serve.binary_wire.reply_bytes"] =
      {0.0, "bytes"};
  m["serve.tcp_server.overhead_us"] = {service_round.tcp_overhead_us, "us"};
  m["serve.replication.ack_lag_ms"] = {Quantile(service_round.ack_lag_ms, 0.5),
                                       "ms"};
  m["serve.replication.bytes"] = {
      service_round.counted_replication_bytes / events, "bytes"};
  m["core.simgraph.build_s"] = {build_s, "s"};
  m["serve.candidate_state.init_s"] = {init_s, "s"};
  m["serve.replication.bootstrap_s"] = {service_round.replica_bootstrap_s, "s"};
  m["bench.generator.late_p99_us"] = {Quantile(service_round.late_us, 0.99),
                                      "us"};
  m["bench.trace.overhead_us_per_event"] = {times.traced_us - times.untraced_us, "us"};
  return m;
}

}  // namespace perfbench
}  // namespace simgraph
