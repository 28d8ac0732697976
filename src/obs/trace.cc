#include "obs/trace.h"

#include <chrono>

namespace adp::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Trace::WriteJson(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& span : spans) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << JsonEscape(span.name) << '"';
    // Complete ("X") events; timestamps and durations in microseconds. An
    // open span (duration -1) is clamped to 0 so viewers still render it.
    out << ",\"cat\":\"adp\",\"ph\":\"X\",\"ts\":"
        << static_cast<std::int64_t>(span.start_ms * 1000.0) << ",\"dur\":"
        << static_cast<std::int64_t>(
               (span.duration_ms < 0 ? 0.0 : span.duration_ms) * 1000.0)
        << ",\"pid\":1,\"tid\":" << span.tid << ",\"args\":{\"id\":"
        << span.id << ",\"parent\":" << span.parent;
    for (const auto& [key, value] : span.tags) {
      out << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << '"';
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"";
  if (dropped > 0) {
    out << ",\"otherData\":{\"dropped_spans\":\"" << dropped << "\"}";
  }
  out << '}';
}

TraceSink::TraceSink(std::size_t max_spans, double backdate_ms)
    : max_spans_(max_spans == 0 ? 1 : max_spans),
      origin_(Now() - std::chrono::duration_cast<MonotonicClock::duration>(
                          std::chrono::duration<double, std::milli>(
                              backdate_ms < 0 ? 0.0 : backdate_ms))) {}

int TraceSink::TidOfCallingThread() {
  const auto [it, inserted] = tids_.emplace(
      std::this_thread::get_id(), static_cast<int>(tids_.size()));
  return it->second;
}

std::uint32_t TraceSink::OpenSpan(std::string_view name,
                                  std::uint32_t parent) {
  const double start = MsBetween(origin_, Now());
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  TraceSpan span;
  span.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name.assign(name);
  span.tid = TidOfCallingThread();
  span.start_ms = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceSink::CloseSpan(std::uint32_t id) {
  const auto now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  TraceSpan& span = spans_[id - 1];
  if (span.duration_ms < 0) {
    span.duration_ms = MsBetween(origin_, now) - span.start_ms;
  }
}

void TraceSink::Annotate(std::uint32_t id, std::string_view key,
                         std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].tags.emplace_back(std::string(key), std::move(value));
}

void TraceSink::AddCompleteSpan(std::string_view name, std::uint32_t parent,
                                double start_ms, double duration_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  TraceSpan span;
  span.id = static_cast<std::uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name.assign(name);
  span.tid = TidOfCallingThread();
  span.start_ms = start_ms;
  span.duration_ms = duration_ms < 0 ? 0.0 : duration_ms;
  spans_.push_back(std::move(span));
}

Trace TraceSink::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  Trace trace;
  trace.spans = std::move(spans_);
  trace.dropped = dropped_;
  spans_.clear();  // moved-from: make the empty state explicit
  dropped_ = 0;
  return trace;
}

}  // namespace adp::obs
