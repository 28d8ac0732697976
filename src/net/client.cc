#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/parse_int.h"

// See src/net/server.cc: writes must surface EPIPE, not raise SIGPIPE in
// the embedding application.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace adp::net {

AdpNetClient::~AdpNetClient() { Close(); }

AdpNetClient::AdpNetClient(AdpNetClient&& other) noexcept
    : fd_(other.fd_),
      reader_(std::move(other.reader_)),
      stash_(std::move(other.stash_)),
      next_id_(other.next_id_),
      version_(other.version_),
      error_(std::move(other.error_)) {
  other.fd_ = -1;
}

AdpNetClient& AdpNetClient::operator=(AdpNetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    reader_ = std::move(other.reader_);
    stash_ = std::move(other.stash_);
    next_id_ = other.next_id_;
    version_ = other.version_;
    error_ = std::move(other.error_);
  }
  return *this;
}

void AdpNetClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool AdpNetClient::Connect(const std::string& host, int port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad address " + host;
    Close();
    return false;
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = "connect failed: " + std::string(std::strerror(errno));
    Close();
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
#ifdef SO_NOSIGPIPE
  setsockopt(fd_, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif

  if (!SendRaw(FrameType::kHello, std::to_string(kProtocolVersionMin) + ' ' +
                                      std::to_string(kProtocolVersionMax))) {
    return false;
  }
  std::optional<Frame> reply = ReadFrame();
  if (!reply.has_value()) {
    if (error_.empty()) error_ = "connection closed during HELLO";
    return false;
  }
  if (reply->type != FrameType::kHelloOk) {
    error_ = "HELLO rejected: " + reply->payload;
    Close();
    return false;
  }
  if (!ParseUint32(reply->payload, &version_)) {
    error_ = "bad HELLO_OK payload: " + reply->payload;
    Close();
    return false;
  }
  return true;
}

bool AdpNetClient::SendBytes(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    error_ = "write failed";
    Close();
    return false;
  }
  return true;
}

bool AdpNetClient::SendRaw(FrameType type, const std::string& payload) {
  std::string framed;
  if (!AppendFrame(framed, type, payload)) {
    error_ = "payload exceeds the frame payload cap";
    return false;
  }
  return SendBytes(framed);
}

bool AdpNetClient::Send(FrameType type, std::int64_t id,
                        const std::string& body) {
  std::string payload = std::to_string(id);
  if (!body.empty()) {
    payload += ' ';
    payload += body;
  }
  return SendRaw(type, payload);
}

std::optional<Frame> AdpNetClient::ReadFrame() {
  if (!stash_.empty()) {
    Frame frame = std::move(stash_.front());
    stash_.pop_front();
    return frame;
  }
  char buf[64 * 1024];
  for (;;) {
    if (std::optional<Frame> frame = reader_.Next()) return frame;
    if (reader_.bad()) {
      error_ = "framing error from server";
      Close();
      return std::nullopt;
    }
    if (fd_ < 0) return std::nullopt;
    const ssize_t n = read(fd_, buf, sizeof buf);
    if (n > 0) {
      reader_.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      error_ = "connection closed by server";
    } else {
      error_ = "read failed";
    }
    Close();
    return std::nullopt;
  }
}

std::optional<Frame> AdpNetClient::WaitReply(std::int64_t id) {
  // Stash first: an earlier WaitReply may already have read our frame.
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    std::int64_t got = 0;
    std::string rest;
    if (SplitCorrelationId(it->payload, &got, &rest) && got == id) {
      Frame frame = std::move(*it);
      stash_.erase(it);
      return frame;
    }
  }
  for (;;) {
    // Bypass the stash (ReadFrame would re-pop what we just inspected).
    std::optional<Frame> frame;
    {
      char buf[64 * 1024];
      for (;;) {
        if ((frame = reader_.Next())) break;
        if (reader_.bad()) {
          error_ = "framing error from server";
          Close();
          return std::nullopt;
        }
        if (fd_ < 0) return std::nullopt;
        const ssize_t n = read(fd_, buf, sizeof buf);
        if (n > 0) {
          reader_.Feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        error_ = n == 0 ? "connection closed by server" : "read failed";
        Close();
        return std::nullopt;
      }
    }
    std::int64_t got = 0;
    std::string rest;
    if (SplitCorrelationId(frame->payload, &got, &rest) && got == id) {
      return frame;
    }
    stash_.push_back(std::move(*frame));
  }
}

std::optional<Frame> AdpNetClient::Call(FrameType type, const std::string& body,
                                        std::string* reply_body) {
  const std::int64_t id = NextId();
  if (!Send(type, id, body)) return std::nullopt;
  std::optional<Frame> reply = WaitReply(id);
  if (reply.has_value() && reply_body != nullptr) {
    std::int64_t got = 0;
    SplitCorrelationId(reply->payload, &got, reply_body);
  }
  return reply;
}

}  // namespace adp::net
