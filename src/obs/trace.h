// Per-request span tracing: RAII Span objects recorded into a bounded
// TraceSink, exported as Chrome trace-event JSON (Perfetto-loadable).
//
// One TraceSink exists per traced request (AdpRequest::collect_trace); the
// engine threads a `TraceSink*` through AdpOptions::trace into the solver
// recursion, so every SolveNode dispatch — including sharded
// Universe/Decompose sub-solves running on other pool threads — opens one
// span, tagged with its case kind and fan-out facts. With tracing disabled
// the pointer is null and the entire layer costs one pointer compare per
// node (the same boundaries that poll the CancelToken).
//
// Spans carry parent links (span ids, 0 = root), so the recorded Trace is
// the solver tree plus the request pipeline around it. The sink is bounded:
// past kDefaultMaxSpans the excess spans are counted in Trace::dropped
// instead of recorded, so a pathological recursion cannot balloon a trace.
//
// Thread safety: OpenSpan/CloseSpan/Annotate take the sink mutex — fine at
// node granularity (a node does orders of magnitude more work than a lock).
// Span objects themselves are single-owner (movable, not copyable).

#ifndef ADP_OBS_TRACE_H_
#define ADP_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace adp::obs {

/// One recorded span. Times are milliseconds relative to the trace origin
/// (the sink's construction, backdated by queue wait for queued requests).
struct TraceSpan {
  std::uint32_t id = 0;      // 1-based; 0 is "no span"
  std::uint32_t parent = 0;  // parent span id; 0 = root
  std::string name;          // from src/obs/names.h
  int tid = 0;               // per-sink thread index (shard visualization)
  double start_ms = 0.0;
  double duration_ms = -1.0;  // -1 while open
  std::vector<std::pair<std::string, std::string>> tags;
};

/// `s` escaped for the inside of a JSON string literal, bytes below 0x20
/// included (as \b \f \n \r \t or \u00XX), so any input gives valid JSON.
/// The one escaper of Trace::WriteJson and the text protocol's lines.
std::string JsonEscape(std::string_view s);

/// A completed trace: the spans of one request, in open order.
struct Trace {
  std::vector<TraceSpan> spans;
  /// Spans not recorded because the sink's bound was hit.
  std::uint64_t dropped = 0;

  /// Chrome trace-event JSON ("X" complete events, µs timestamps): load the
  /// output in Perfetto / chrome://tracing directly. Span ids/parents and
  /// tags ride in each event's "args".
  void WriteJson(std::ostream& out) const;
};

/// The bounded per-request span collector.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultMaxSpans = 8192;

  /// `backdate_ms` shifts the trace origin into the past — the engine uses
  /// it to place a synthetic queue-wait span before the solve's first span.
  explicit TraceSink(std::size_t max_spans = kDefaultMaxSpans,
                     double backdate_ms = 0.0);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Records a span start; returns its id, or 0 when the sink is full (the
  /// span is then counted in Trace::dropped and every later call with this
  /// id is a no-op).
  std::uint32_t OpenSpan(std::string_view name, std::uint32_t parent);

  /// Stamps the span's duration. No-op for id 0 or an already-closed span.
  void CloseSpan(std::uint32_t id);

  /// Attaches a key/value tag to an open-or-closed span. No-op for id 0.
  void Annotate(std::uint32_t id, std::string_view key, std::string value);

  /// Records an already-measured span (used for the synthetic queue span,
  /// whose interval predates the sink's instrumentation window).
  void AddCompleteSpan(std::string_view name, std::uint32_t parent,
                       double start_ms, double duration_ms);

  /// Moves the recorded spans out as a Trace. Call after every Span into
  /// this sink has been closed; spans still open keep duration -1.
  Trace Take();

 private:
  int TidOfCallingThread();  // requires mu_

  const std::size_t max_spans_;
  const MonotonicClock::time_point origin_;

  std::mutex mu_;
  std::vector<TraceSpan> spans_;  // index = id - 1
  std::unordered_map<std::thread::id, int> tids_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: opens on construction (no-op when `sink` is null — the
/// tracing-disabled fast path), closes on destruction or End().
class Span {
 public:
  /// Inert span: id() is 0, destruction is a no-op.
  Span() = default;

  Span(TraceSink* sink, std::string_view name, std::uint32_t parent = 0)
      : sink_(sink), id_(sink != nullptr ? sink->OpenSpan(name, parent) : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span(Span&& other) noexcept
      : sink_(other.sink_), id_(other.id_) {
    other.sink_ = nullptr;
    other.id_ = 0;
  }

  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      sink_ = other.sink_;
      id_ = other.id_;
      other.sink_ = nullptr;
      other.id_ = 0;
    }
    return *this;
  }

  ~Span() { End(); }

  /// Closes the span now (idempotent; implied by destruction). Useful when
  /// the trace must be Take()n before scope exit.
  void End() {
    if (sink_ != nullptr) {
      sink_->CloseSpan(id_);
      sink_ = nullptr;
      id_ = 0;
    }
  }

  /// This span's id, for parent links. 0 when inert or dropped.
  std::uint32_t id() const { return id_; }

  void Tag(std::string_view key, std::string value) {
    if (sink_ != nullptr) sink_->Annotate(id_, key, std::move(value));
  }

  void Tag(std::string_view key, std::int64_t value) {
    if (sink_ != nullptr) {
      sink_->Annotate(id_, key, std::to_string(value));
    }
  }

 private:
  TraceSink* sink_ = nullptr;
  std::uint32_t id_ = 0;
};

}  // namespace adp::obs

#endif  // ADP_OBS_TRACE_H_
