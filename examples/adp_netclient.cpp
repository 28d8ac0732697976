// adp_netclient: replays a request file against an adp_netserver over TCP.
//
// Reads commands from a file (or stdin) — DB / REQ / STREAM / PREPARE /
// EXEC / CANCEL / STATS / METRICS, one per line, '#' starting a comment,
// grammar in src/net/textproto.h — sends each as one protocol frame
// (docs/PROTOCOL.md), and prints the server's reply bodies, one line each.
// REQ is pipelined (replies are collected in request order at STATS /
// METRICS / EOF); STREAM drains its pushed frames in place. README.md's
// "Serving requests" has an example file.
//
// Usage:  adp_netclient --port=P [--host=A] [requests.txt]
//
// P must be a whole number in [1, 65535]; anything else exits 1.
//
// Exit code: 0 when every request succeeded (or was explicitly CANCELled);
// otherwise StatusExitCode of the first failing reply, one distinct code
// per Status code.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "engine/status.h"
#include "net/client.h"
#include "net/textproto.h"
#include "net/wire.h"
#include "util/parse_int.h"

namespace {

using adp::Status;
using adp::StatusCode;
using adp::net::AdpNetClient;
using adp::net::Frame;
using adp::net::FrameType;

/// Reverse of StatusCodeName, for mirroring server-reported failures into
/// this process's exit code. Unknown names map to kInternal.
StatusCode StatusCodeFromName(const std::string& name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kOverloaded); ++c) {
    if (name == adp::StatusCodeName(static_cast<StatusCode>(c))) {
      return static_cast<StatusCode>(c);
    }
  }
  return StatusCode::kInternal;
}

/// Pulls the "status":"NAME" field out of one JSON result line ("" when
/// absent — e.g. DB_OK / CANCEL_OK bodies, which carry no status).
std::string ExtractStatusName(const std::string& body) {
  const std::string key = "\"status\":\"";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return "";
  const std::size_t start = at + key.size();
  const std::size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

// CANCELLED is operator-initiated, not a failure.
void NoteBody(const Frame& frame, Status& first_error) {
  std::string name;
  if (frame.type == FrameType::kError) {
    // "<id> <STATUS_NAME> <message>"
    std::int64_t id = 0;
    std::string rest;
    adp::net::SplitCorrelationId(frame.payload, &id, &rest);
    const std::vector<std::string> toks = adp::net::SplitWs(rest);
    if (!toks.empty()) name = toks[0];
  } else {
    name = ExtractStatusName(frame.payload);
  }
  if (name.empty() || name == "OK" || name == "CANCELLED") return;
  if (first_error.ok()) {
    first_error = Status(StatusCodeFromName(name), "server reported " + name);
  }
}

/// Prints a reply's body (payload after the correlation id).
void PrintBody(const Frame& frame) {
  std::int64_t id = 0;
  std::string body;
  if (!adp::net::SplitCorrelationId(frame.payload, &id, &body)) {
    body = frame.payload;
  }
  std::cout << body << "\n";
}

bool DrainPending(AdpNetClient& client, std::vector<std::int64_t>& pending,
                  Status& first_error) {
  for (std::int64_t id : pending) {
    std::optional<Frame> reply = client.WaitReply(id);
    if (!reply.has_value()) return false;
    NoteBody(*reply, first_error);
    PrintBody(*reply);
  }
  pending.clear();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!adp::ParseIntInRange(arg.substr(7), 1, 65535, &port)) {
        std::cerr << "bad flag value: " << arg << "\n";
        return 1;
      }
    } else {
      path = arg;
    }
  }
  if (port <= 0) {
    std::cerr << "usage: adp_netclient --port=P [--host=A] [requests.txt]\n";
    return 1;
  }

  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
  }
  std::istream& in = path.empty() ? std::cin : file;

  AdpNetClient client;
  if (!client.Connect(host, port)) {
    std::cerr << "connect failed: " << client.error() << "\n";
    return 1;
  }

  Status first_error;
  std::vector<std::int64_t> pending;  // REQ ids awaiting kResult, in order

  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> toks = adp::net::SplitWs(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];

    FrameType type;
    if (cmd == "DB") {
      type = FrameType::kDb;
    } else if (cmd == "REQ") {
      type = FrameType::kReq;
    } else if (cmd == "STREAM") {
      type = FrameType::kStream;
    } else if (cmd == "PREPARE") {
      type = FrameType::kPrepare;
    } else if (cmd == "EXEC") {
      type = FrameType::kExec;
    } else if (cmd == "CANCEL") {
      type = FrameType::kCancel;
    } else if (cmd == "STATS") {
      type = FrameType::kStats;
    } else if (cmd == "METRICS") {
      type = FrameType::kMetrics;
    } else {
      std::cout << "{\"req\":null,\"status\":\"INVALID_ARGUMENT\",\"error\":\""
                << adp::net::JsonEscape("unknown command " + cmd) << "\"}\n";
      if (first_error.ok()) {
        first_error = Status(StatusCode::kInvalidArgument,
                             "unknown command " + cmd);
      }
      continue;
    }

    // STATS/METRICS first drain pipelined REQs, so replies print in
    // request order.
    if ((type == FrameType::kStats || type == FrameType::kMetrics) &&
        !DrainPending(client, pending, first_error)) {
      break;
    }

    const std::int64_t id = client.NextId();
    if (!client.Send(type, id, line)) break;

    if (type == FrameType::kReq) {
      pending.push_back(id);  // reply arrives whenever; drain later
      continue;
    }
    if (type == FrameType::kStream) {
      // Pushed frames: items until kStreamEnd (or kError).
      for (;;) {
        std::optional<Frame> frame = client.WaitReply(id);
        if (!frame.has_value()) break;
        NoteBody(*frame, first_error);
        PrintBody(*frame);
        if (frame->type != FrameType::kStreamItem) break;
      }
      continue;
    }
    std::optional<Frame> reply = client.WaitReply(id);
    if (!reply.has_value()) break;
    NoteBody(*reply, first_error);
    PrintBody(*reply);
  }

  if (client.connected()) {
    DrainPending(client, pending, first_error);
    client.Call(FrameType::kBye, "BYE");
  } else if (first_error.ok()) {
    std::cerr << "connection lost: " << client.error() << "\n";
    first_error = Status(StatusCode::kInternal, client.error());
  }
  return StatusExitCode(first_error.code());
}
