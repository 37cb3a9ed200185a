#include "serve/wire_protocol.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <unordered_map>

#include "util/metrics.h"

namespace simgraph {
namespace serve {
namespace {

/// Minimal parser for one *flat* JSON object: string keys mapping to
/// string, number, or boolean values. No nesting, no arrays — the wire
/// protocol never needs them on the request side, and keeping the
/// parser this small means no external JSON dependency.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view input) : input_(input) {}

  Status Parse(std::unordered_map<std::string, std::string>* strings,
               std::unordered_map<std::string, double>* numbers) {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return TrailingCheck();
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return Error("expected string key");
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      if (Peek() == '"') {
        std::string value;
        if (!ParseString(&value)) return Error("bad string value");
        (*strings)[key] = std::move(value);
      } else if (Peek() == 't' || Peek() == 'f') {
        if (ConsumeWord("true")) {
          (*numbers)[key] = 1.0;
        } else if (ConsumeWord("false")) {
          (*numbers)[key] = 0.0;
        } else {
          return Error("bad literal");
        }
      } else {
        double value = 0.0;
        if (!ParseNumber(&value)) return Error("bad number value");
        (*numbers)[key] = value;
      }
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return TrailingCheck();
      return Error("expected ',' or '}'");
    }
  }

 private:
  char Peek() const {
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumeWord(std::string_view word) {
    if (input_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= input_.size()) return false;
        const char esc = input_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          default: return false;  // \uXXXX etc. unsupported on purpose
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }
  bool ParseNumber(double* out) {
    const size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '-' || input_[pos_] == '+' ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(input_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }
  Status TrailingCheck() {
    SkipSpace();
    if (pos_ != input_.size()) return Error("trailing characters");
    return Status::Ok();
  }
  Status Error(std::string_view what) const {
    return Status::InvalidArgument("wire protocol: " + std::string(what));
  }

  std::string_view input_;
  size_t pos_ = 0;
};

int64_t GetInt(const std::unordered_map<std::string, double>& numbers,
               const std::string& key, int64_t fallback) {
  const auto it = numbers.find(key);
  return it == numbers.end() ? fallback : static_cast<int64_t>(it->second);
}

std::string EscapeJson(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void AppendDouble(std::string* out, double value) {
  char buffer[32];  // %.17g needs at most 24 bytes ("-1.2345678901234567e-308")
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  out->append(buffer, end.ptr);
}

StatusOr<WireRequest> ParseRequestLine(std::string_view line) {
  std::unordered_map<std::string, std::string> strings;
  std::unordered_map<std::string, double> numbers;
  FlatJsonParser parser(line);
  SIMGRAPH_RETURN_IF_ERROR(parser.Parse(&strings, &numbers));
  const auto op_it = strings.find("op");
  if (op_it == strings.end()) {
    return Status::InvalidArgument("wire protocol: missing \"op\"");
  }
  WireRequest request;
  const std::string& op = op_it->second;
  if (op == "recommend") {
    request.op = WireRequest::Op::kRecommend;
    request.user = static_cast<UserId>(GetInt(numbers, "user", -1));
    request.now = GetInt(numbers, "now", 0);
    request.k = static_cast<int32_t>(GetInt(numbers, "k", 10));
  } else if (op == "event") {
    request.op = WireRequest::Op::kEvent;
    request.tweet = GetInt(numbers, "tweet", -1);
    request.user = static_cast<UserId>(GetInt(numbers, "user", -1));
    request.time = GetInt(numbers, "time", 0);
    if (request.tweet < 0) {
      return Status::InvalidArgument("wire protocol: event needs \"tweet\"");
    }
    if (request.user < 0) {
      return Status::InvalidArgument("wire protocol: event needs \"user\"");
    }
  } else if (op == "wait_applied") {
    request.op = WireRequest::Op::kWaitApplied;
    request.seq = static_cast<uint64_t>(GetInt(numbers, "seq", 0));
  } else if (op == "stats") {
    request.op = WireRequest::Op::kStats;
  } else if (op == "stats-window") {
    request.op = WireRequest::Op::kStatsWindow;
    request.limit = static_cast<int32_t>(GetInt(numbers, "n", 16));
  } else if (op == "slow-log") {
    request.op = WireRequest::Op::kSlowLog;
    request.limit = static_cast<int32_t>(GetInt(numbers, "n", 16));
  } else if (op == "metrics") {
    request.op = WireRequest::Op::kMetrics;
  } else if (op == "ping") {
    request.op = WireRequest::Op::kPing;
  } else {
    return Status::InvalidArgument("wire protocol: unknown op \"" + op +
                                   "\"");
  }
  return request;
}

void AppendEventAck(std::string* out, uint64_t seq) {
  *out += "{\"ok\":true,\"op\":\"event\",\"seq\":";
  *out += std::to_string(seq);
  *out += "}";
}

std::string FormatEventAck(uint64_t seq) {
  std::string out;
  AppendEventAck(&out, seq);
  return out;
}

void AppendRecommendResponse(std::string* out, UserId user,
                             uint64_t request_id,
                             const std::vector<ScoredTweet>& tweets,
                             bool cache_hit, bool degraded,
                             uint64_t applied_seq) {
  *out += "{\"ok\":true,\"op\":\"recommend\",\"user\":";
  *out += std::to_string(user);
  *out += ",\"request_id\":";
  *out += std::to_string(request_id);
  *out += ",\"cache_hit\":";
  *out += cache_hit ? "true" : "false";
  *out += ",\"degraded\":";
  *out += degraded ? "true" : "false";
  *out += ",\"applied_seq\":";
  *out += std::to_string(applied_seq);
  *out += ",\"tweets\":[";
  for (size_t i = 0; i < tweets.size(); ++i) {
    if (i > 0) *out += ",";
    *out += "{\"id\":";
    *out += std::to_string(tweets[i].tweet);
    *out += ",\"score\":";
    AppendDouble(out, tweets[i].score);
    *out += "}";
  }
  *out += "]}";
}

std::string FormatRecommendResponse(UserId user, uint64_t request_id,
                                    const std::vector<ScoredTweet>& tweets,
                                    bool cache_hit, bool degraded,
                                    uint64_t applied_seq) {
  std::string out;
  AppendRecommendResponse(&out, user, request_id, tweets, cache_hit,
                          degraded, applied_seq);
  return out;
}

void AppendWaitAppliedAck(std::string* out, uint64_t seq) {
  *out += "{\"ok\":true,\"op\":\"wait_applied\",\"seq\":";
  *out += std::to_string(seq);
  *out += "}";
}

std::string FormatWaitAppliedAck(uint64_t seq) {
  std::string out;
  AppendWaitAppliedAck(&out, seq);
  return out;
}

void AppendStats(std::string* out, const BackendStats& stats,
                 const std::string& metrics_json) {
  *out += "{\"ok\":true,\"op\":\"stats\",\"applied_seq\":";
  *out += std::to_string(stats.applied_seq);
  *out += ",\"cached_entries\":";
  *out += std::to_string(stats.cached_entries);
  *out += ",\"graph_epoch\":";
  *out += std::to_string(stats.graph_epoch);
  *out += ",\"graph_edges\":";
  *out += std::to_string(stats.graph_edges);
  *out += ",\"num_shards\":";
  *out += std::to_string(stats.shards.size());
  *out += ",\"shards\":[";
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStats& shard = stats.shards[i];
    if (i > 0) *out += ",";
    *out += "{\"applied_seq\":" + std::to_string(shard.applied_seq) +
            ",\"cached_entries\":" + std::to_string(shard.cached_entries) +
            ",\"graph_epoch\":" + std::to_string(shard.graph_epoch) +
            ",\"graph_edges\":" + std::to_string(shard.graph_edges) + "}";
  }
  *out += "]";
  if (!metrics_json.empty()) {
    // Embedded verbatim: the compact registry snapshot is already JSON.
    *out += ",\"metrics\":";
    *out += metrics_json;
  }
  *out += "}";
}

std::string FormatStats(const BackendStats& stats,
                        const std::string& metrics_json) {
  std::string out;
  AppendStats(&out, stats, metrics_json);
  return out;
}

void AppendStatsWindow(std::string* out,
                       const std::vector<std::string>& records) {
  *out += "{\"ok\":true,\"op\":\"stats-window\",\"windows\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) *out += ",";
    // Each record is a complete JSON object serialized by the
    // TimeseriesRecorder; embedded verbatim like FormatStats' metrics.
    *out += records[i];
  }
  *out += "]}";
}

std::string FormatStatsWindow(const std::vector<std::string>& records) {
  std::string out;
  AppendStatsWindow(&out, records);
  return out;
}

void AppendSlowRequestJson(std::string* out, const SlowRequestEntry& entry) {
  *out += "{\"request_id\":" + std::to_string(entry.request_id) +
          ",\"shard\":" + std::to_string(entry.shard) +
          ",\"window\":" + std::to_string(entry.window) +
          ",\"user\":" + std::to_string(entry.user) +
          ",\"total_us\":" + std::to_string(entry.total_us) +
          ",\"cache_hit\":" + (entry.cache_hit ? "true" : "false") +
          ",\"degraded\":" + (entry.degraded ? "true" : "false") +
          ",\"stages\":{";
  for (int i = 0; i < entry.num_stages; ++i) {
    if (i > 0) *out += ",";
    *out += "\"";
    *out += EscapeJson(entry.stages[i].name);
    *out += "\":";
    *out += std::to_string(entry.stages[i].micros);
  }
  *out += "}}";
}

void AppendSlowLog(std::string* out,
                   const std::vector<SlowRequestEntry>& entries) {
  *out += "{\"ok\":true,\"op\":\"slow-log\",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) *out += ",";
    AppendSlowRequestJson(out, entries[i]);
  }
  *out += "]}";
}

std::string FormatSlowLog(const std::vector<SlowRequestEntry>& entries) {
  std::string out;
  AppendSlowLog(&out, entries);
  return out;
}

void AppendPong(std::string* out) { *out += "{\"ok\":true,\"op\":\"ping\"}"; }

std::string FormatPong() {
  std::string out;
  AppendPong(&out);
  return out;
}

void AppendError(std::string* out, std::string_view message) {
  *out += "{\"ok\":false,\"error\":\"";
  *out += EscapeJson(message);
  *out += "\"}";
}

std::string FormatError(std::string_view message) {
  std::string out;
  AppendError(&out, message);
  return out;
}

void NoteReplyBufferUse(size_t capacity_before, const std::string& after) {
  // A fresh std::string per response (the pre-reuse scheme) paid at
  // least one allocation every pass; a pass that fit inside storage the
  // buffer already owned paid none.
  if (capacity_before > 0 && after.size() <= capacity_before) {
    SIMGRAPH_COUNTER_ADD("serve.wire.buffer.reuses", 1);
  } else {
    SIMGRAPH_COUNTER_ADD("serve.wire.buffer.grows", 1);
  }
}

}  // namespace serve
}  // namespace simgraph
