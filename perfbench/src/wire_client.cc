#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "harness.h"
#include "serve/binary_wire.h"
#include "serve/wire_protocol.h"

namespace simgraph {
namespace perfbench {
namespace {

/// Reads the number following `"key":` in `line`; false when absent.
bool FindNumber(const std::string& line, const char* key, size_t from,
                const char** at) {
  const size_t pos = line.find(key, from);
  if (pos == std::string::npos) return false;
  *at = line.c_str() + pos + std::strlen(key);
  return true;
}

/// Parses an NDJSON recommend reply into `answer` (user, cache_hit,
/// applied_seq, tweets); false when it is not a well-formed success.
bool ParseNdjsonRecommend(const std::string& line, Answer* answer) {
  if (line.rfind("{\"ok\":true,\"op\":\"recommend\"", 0) != 0) return false;
  const char* at = nullptr;
  if (!FindNumber(line, "\"user\":", 0, &at)) return false;
  answer->user = static_cast<UserId>(std::strtol(at, nullptr, 10));
  answer->cache_hit = line.find("\"cache_hit\":true") != std::string::npos;
  if (!FindNumber(line, "\"applied_seq\":", 0, &at)) return false;
  answer->applied_seq = std::strtoull(at, nullptr, 10);
  const size_t list = line.find("\"tweets\":[");
  if (list == std::string::npos) return false;
  answer->tweets.clear();
  size_t pos = list;
  while (FindNumber(line, "{\"id\":", pos, &at)) {
    char* end = nullptr;
    ScoredTweet item;
    item.tweet = static_cast<TweetId>(std::strtoll(at, &end, 10));
    if (std::strncmp(end, ",\"score\":", 9) != 0) return false;
    item.score = std::strtod(end + 9, &end);
    answer->tweets.push_back(item);
    pos = static_cast<size_t>(end - line.c_str());
  }
  return true;
}

}  // namespace

WireClient::WireClient(uint16_t port, bool binary) : binary_(binary) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  if (connected_ && binary_) {
    connected_ = serve::SendBinaryHandshake(fd_).ok();
  }
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireClient::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool WireClient::ReadLine(std::string* line) {
  size_t newline;
  while ((newline = in_.find('\n')) == std::string::npos) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    in_.append(chunk, static_cast<size_t>(n));
  }
  line->assign(in_, 0, newline);
  in_.erase(0, newline + 1);
  return true;
}

bool WireClient::Recommend(UserId user, Timestamp now, int32_t k,
                           Answer* answer) {
  answer->user = user;
  answer->now = now;
  answer->k = k;
  out_.clear();
  if (binary_) {
    serve::WireRequest request;
    request.op = serve::WireRequest::Op::kRecommend;
    request.user = user;
    request.now = now;
    request.k = k;
    serve::AppendBinaryRequest(&out_, request);
    serve::BinaryOp op;
    serve::BinaryRecommendResponse response;
    if (!SendAll(out_) ||
        !serve::ReadBinaryFrameBlocking(fd_, &op, &payload_).ok() ||
        op != serve::BinaryOp::kRecommend ||
        !serve::ParseBinaryRecommendResponse(payload_, &response).ok() ||
        response.user != user || response.degraded) {
      return false;
    }
    answer->cache_hit = response.cache_hit;
    answer->applied_seq = response.applied_seq;
    answer->tweets = std::move(response.tweets);
    return true;
  }
  out_ = "{\"op\":\"recommend\",\"user\":" + std::to_string(user) +
         ",\"now\":" + std::to_string(now) + ",\"k\":" + std::to_string(k) +
         "}\n";
  return SendAll(out_) && ReadLine(&payload_) &&
         ParseNdjsonRecommend(payload_, answer) && answer->user == user &&
         payload_.find("\"degraded\":false") != std::string::npos;
}

bool WireClient::Publish(const RetweetEvent& event, uint64_t* seq) {
  if (!binary_) return false;  // the benchmark publishes over SGRQ only
  out_.clear();
  serve::WireRequest request;
  request.op = serve::WireRequest::Op::kEvent;
  request.tweet = event.tweet;
  request.user = event.user;
  request.time = event.time;
  serve::AppendBinaryRequest(&out_, request);
  serve::BinaryOp op;
  return SendAll(out_) &&
         serve::ReadBinaryFrameBlocking(fd_, &op, &payload_).ok() &&
         op == serve::BinaryOp::kEvent &&
         serve::ParseBinaryU64(payload_, seq).ok() && *seq > 0;
}

}  // namespace perfbench
}  // namespace simgraph
