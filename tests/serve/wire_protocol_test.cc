#include "serve/wire_protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/random.h"

namespace simgraph {
namespace serve {
namespace {

TEST(WireProtocolTest, ParsesRecommendRequest) {
  const auto parsed =
      ParseRequestLine(R"({"op":"recommend","user":7,"now":100500,"k":10})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, WireRequest::Op::kRecommend);
  EXPECT_EQ(parsed->user, 7);
  EXPECT_EQ(parsed->now, 100500);
  EXPECT_EQ(parsed->k, 10);
}

TEST(WireProtocolTest, ParsesEventRequestAndDefaults) {
  const auto parsed =
      ParseRequestLine(R"({"op":"event","tweet":42,"user":7,"time":12345})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->op, WireRequest::Op::kEvent);
  EXPECT_EQ(parsed->tweet, 42);
  EXPECT_EQ(parsed->user, 7);
  EXPECT_EQ(parsed->time, 12345);

  const auto defaults = ParseRequestLine(R"({"op":"recommend","user":1})");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults->k, 10);  // default budget
  EXPECT_EQ(defaults->now, 0);
}

TEST(WireProtocolTest, ParsesControlOpsAndIgnoresUnknownKeys) {
  EXPECT_EQ(ParseRequestLine(R"({"op":"ping"})")->op, WireRequest::Op::kPing);
  EXPECT_EQ(ParseRequestLine(R"({"op":"stats"})")->op,
            WireRequest::Op::kStats);
  EXPECT_EQ(ParseRequestLine(R"({"op":"metrics"})")->op,
            WireRequest::Op::kMetrics);
  const auto wait =
      ParseRequestLine(R"({"op":"wait_applied","seq":12,"trace_id":"abc"})");
  ASSERT_TRUE(wait.ok());
  EXPECT_EQ(wait->op, WireRequest::Op::kWaitApplied);
  EXPECT_EQ(wait->seq, 12u);
}

TEST(WireProtocolTest, WhitespaceAndBooleansAreTolerated) {
  const auto parsed = ParseRequestLine(
      "  { \"op\" : \"recommend\" , \"user\" : 3 , \"debug\" : true }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, 3);
}

TEST(WireProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("recommend user 7").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"recommend")").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"teleport"})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"user":7})").ok());        // no op
  EXPECT_FALSE(ParseRequestLine(R"({"op":"event","user":7})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"ping"} trailing)").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":{"nested":1}})").ok());
}

TEST(WireProtocolTest, FormatsAreStableJson) {
  EXPECT_EQ(FormatEventAck(12), R"({"ok":true,"op":"event","seq":12})");
  EXPECT_EQ(FormatWaitAppliedAck(5),
            R"({"ok":true,"op":"wait_applied","seq":5})");
  EXPECT_EQ(FormatPong(), R"({"ok":true,"op":"ping"})");
  BackendStats stats;
  stats.applied_seq = 3;
  stats.cached_entries = 2;
  stats.graph_epoch = 1;
  stats.graph_edges = 99;
  stats.shards = {{3, 2, 1, 99}};
  EXPECT_EQ(FormatStats(stats),
            R"({"ok":true,"op":"stats","applied_seq":3,"cached_entries":2,)"
            R"("graph_epoch":1,"graph_edges":99,"num_shards":1,)"
            R"("shards":[{"applied_seq":3,"cached_entries":2,)"
            R"("graph_epoch":1,"graph_edges":99}]})");
  stats.shards.clear();
  EXPECT_EQ(FormatStats(stats, R"({"counters":{}})"),
            R"({"ok":true,"op":"stats","applied_seq":3,"cached_entries":2,)"
            R"("graph_epoch":1,"graph_edges":99,"num_shards":0,"shards":[],)"
            R"("metrics":{"counters":{}}})");
  EXPECT_EQ(FormatError("bad \"stuff\"\n"),
            R"({"ok":false,"error":"bad \"stuff\"\n"})");
}

TEST(WireProtocolTest, FormatRecommendResponseRoundsTripsScores) {
  const std::vector<ScoredTweet> tweets = {{3, 0.5}, {9, 0.25}};
  const std::string line =
      FormatRecommendResponse(7, /*request_id=*/21, tweets,
                              /*cache_hit=*/true,
                              /*degraded=*/false, /*applied_seq=*/4);
  EXPECT_EQ(line,
            R"({"ok":true,"op":"recommend","user":7,"request_id":21,)"
            R"("cache_hit":true,"degraded":false,"applied_seq":4,)"
            R"("tweets":[{"id":3,"score":0.5},{"id":9,"score":0.25}]})");
  const std::string empty =
      FormatRecommendResponse(1, 0, {}, false, true, 0);
  EXPECT_NE(empty.find("\"tweets\":[]"), std::string::npos);
  EXPECT_NE(empty.find("\"degraded\":true"), std::string::npos);
}

TEST(WireProtocolTest, AppendTwinsMatchFormatByteForByte) {
  // The Append* family is the zero-copy path the TCP server uses to
  // build one reply buffer per recv pass; each must produce exactly the
  // bytes of its Format* twin, appended after existing content.
  BackendStats stats;
  stats.applied_seq = 3;
  stats.cached_entries = 2;
  stats.graph_epoch = 1;
  stats.graph_edges = 99;
  stats.shards = {{3, 2, 1, 99}};
  SlowRequestEntry slow;
  slow.request_id = 9;
  slow.user = 5;
  slow.total_us = 1234;
  const std::vector<ScoredTweet> tweets = {{3, 0.5}, {9, 1.0 / 3.0}};
  const std::vector<std::string> windows = {R"({"w":1})", R"({"w":2})"};

  std::string out = "prefix|";
  std::string expected = "prefix|";

  AppendEventAck(&out, 12);
  expected += FormatEventAck(12);
  AppendRecommendResponse(&out, 7, 21, tweets, true, false, 4);
  expected += FormatRecommendResponse(7, 21, tweets, true, false, 4);
  AppendWaitAppliedAck(&out, 5);
  expected += FormatWaitAppliedAck(5);
  AppendStats(&out, stats, R"({"counters":{}})");
  expected += FormatStats(stats, R"({"counters":{}})");
  AppendStatsWindow(&out, windows);
  expected += FormatStatsWindow(windows);
  AppendSlowLog(&out, {slow});
  expected += FormatSlowLog({slow});
  AppendPong(&out);
  expected += FormatPong();
  AppendError(&out, "bad \"stuff\"\n");
  expected += FormatError("bad \"stuff\"\n");

  EXPECT_EQ(out, expected);
}

// AppendDouble must spell every double exactly as snprintf("%.17g")
// does, byte for byte: scores in (0, 1], subnormals, and the values on
// either side of powers of ten where %g switches notation.
TEST(WireProtocolTest, AppendDoubleMatchesPrintfByteForByte) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.5,
                                1.0 / 3.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::epsilon()};
  Rng rng(20240613);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(1.0 - rng.NextDouble());  // (0, 1], a propagated score
  }
  for (int i = 0; i < 2000; ++i) {
    // Subnormals: a random mantissa below the smallest normal.
    values.push_back(std::numeric_limits<double>::min() * rng.NextDouble());
  }
  for (int e = -320; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, 2.0 * p));
    values.push_back(-p);
  }
  for (const double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    std::string actual;
    AppendDouble(&actual, v);
    ASSERT_EQ(actual, expected) << "value bits differ for " << expected;
  }
}

TEST(WireProtocolTest, NoteReplyBufferUseCountsReusesAndGrows) {
  metrics::SetEnabled(true);
  metrics::Registry::Global().Reset();
  std::string reply;
  reply.reserve(64);
  reply.assign(32, 'x');
  // Fits in the pre-pass capacity: a reuse (no allocation happened).
  NoteReplyBufferUse(/*capacity_before=*/64, reply);
  // Outgrew the pre-pass capacity: a grow (the buffer reallocated).
  reply.assign(128, 'y');
  NoteReplyBufferUse(/*capacity_before=*/64, reply);
  // First pass of a fresh connection (capacity 0) never counts as a
  // reuse, even for an empty reply.
  reply.clear();
  NoteReplyBufferUse(/*capacity_before=*/0, reply);
  auto& registry = metrics::Registry::Global();
  EXPECT_EQ(registry.counter("serve.wire.buffer.reuses").value(), 1);
  EXPECT_EQ(registry.counter("serve.wire.buffer.grows").value(), 2);
  metrics::SetEnabled(false);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
