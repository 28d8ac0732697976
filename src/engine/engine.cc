#include "engine/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/restrictions.h"
#include "util/stopwatch.h"

namespace adp {
namespace {

/// Most completed result-table slots kept for coalescing admission.
constexpr std::size_t kRecentResultsCapacity = 64;

/// Stream buffer capacity, in items. Small on purpose: the buffer exists to
/// decouple producer and consumer, not to hold the result — backpressure
/// (a blocked producer) is the intended steady state for slow consumers.
constexpr std::size_t kStreamBufferItems = 8;

/// Engine-internal failure carrying the Status code the response should
/// surface. Thrown by the resolution steps (database lookup, binding) and
/// mapped back to a Status in Solve's catch ladder.
class EngineError : public std::runtime_error {
 public:
  EngineError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  StatusCode code() const { return code_; }

 private:
  StatusCode code_;
};

/// Throws kInvalidArgument when `inst`, bound to body atom `i` of `q`, has
/// another arity than the atom has attributes. An empty instance has arity
/// 0 until its first row, so it binds to any atom.
void CheckArity(const ConjunctiveQuery& q, int i,
                const RelationInstance& inst) {
  const RelationSchema& atom = q.relation(i);
  if (inst.empty() || inst.arity() == atom.attrs.size()) return;
  throw EngineError(StatusCode::kInvalidArgument,
                    "relation '" + atom.name + "' has arity " +
                        std::to_string(inst.arity()) + " but query body atom " +
                        std::to_string(i) + " has arity " +
                        std::to_string(atom.attrs.size()));
}

AdpResponse FailureResponse(Status status) {
  AdpResponse resp;
  resp.status = std::move(status);
  return resp;
}

AdpResponse ShutdownResponse() {
  return FailureResponse(Status(StatusCode::kShutdown, "engine is shut down"));
}

/// Response for a request shed at admission: the pool backlog exceeded
/// EngineConfig::max_queue_depth, so enqueueing it would only add latency
/// for everyone. Callers should back off and retry.
AdpResponse OverloadedResponse() {
  return FailureResponse(Status(
      StatusCode::kOverloaded,
      "request shed: worker queue exceeds EngineConfig::max_queue_depth"));
}

/// A coalesced hit's own response: a deep copy (witness tuples can be
/// large), made outside the engine lock.
AdpResponse CoalescedCopy(const AdpResponse& completed) {
  AdpResponse resp = completed;
  resp.coalesced = true;
  return resp;
}

/// Response for a request dropped before its solve ever ran (cancelled or
/// expired while queued).
AdpResponse DroppedResponse(CancelReason reason) {
  return FailureResponse(
      reason == CancelReason::kDeadlineExceeded
          ? Status(StatusCode::kDeadlineExceeded,
                   "deadline expired before the solve started")
          : Status(StatusCode::kCancelled,
                   "cancelled before the solve started"));
}

bool Restricted(const AdpOptions& options) {
  return options.restrictions != nullptr && !options.restrictions->Empty();
}

// Option knobs that influence Algorithm-2 classification (and hence the
// dispatch plan). Part of every plan-cache key so that requests with
// different knobs never share a plan built for the wrong configuration.
std::string OptionBits(const AdpOptions& options) {
  std::string bits;
  bits += options.use_singleton ? 's' : '-';
  bits += options.universe_strategy == AdpOptions::UniverseStrategy::kOneByOne
              ? '1'
              : 'a';
  bits += Restricted(options) ? 'r' : '-';
  return bits;
}

std::string PlanKey(const AdpRequest& req) {
  return "t|" + OptionBits(req.options) + "|" + req.query_text;
}

// Remaining knobs that influence the *solution* (not just the plan), so two
// requests may share one solve only when these agree too.
std::string SolveBits(const AdpOptions& options) {
  std::string bits;
  bits += options.heuristic == AdpOptions::Heuristic::kDrastic ? 'd' : 'g';
  bits += options.counting_only ? 'c' : '-';
  bits += options.verify ? 'v' : '-';
  bits += options.universe_convex_merge ? 'm' : '-';
  switch (options.decompose_strategy) {
    case AdpOptions::DecomposeStrategy::kImprovedDP: bits += 'i'; break;
    case AdpOptions::DecomposeStrategy::kPairwiseNaive: bits += 'p'; break;
    case AdpOptions::DecomposeStrategy::kFullEnumeration: bits += 'f'; break;
  }
  return bits;
}

std::shared_ptr<const CachedPlan> BuildPlan(const AdpRequest& req) {
  auto plan = std::make_shared<CachedPlan>();
  plan->query = ParseQuery(req.query_text);
  plan->dispatch = BuildDispatchPlan(
      plan->query.HasSelections()
          ? RemoveAttributes(plan->query, plan->query.SelectedAttrs())
          : plan->query,
      req.options);
  // The dispatch build already ran the linearization search for a boolean
  // residual; reuse its result instead of searching again.
  plan->verdict = ClassifyResidual(plan->dispatch.query,
                                   plan->dispatch.linear_order);
  return plan;
}

/// The database a request solves against: a bound handle's, else req.db.
DbId TargetDb(const AdpRequest& req) {
  return req.prepared.bound() ? req.prepared.bound_db() : req.db;
}

/// A request for `prepared`'s query at target `k` (the prepared overloads).
AdpRequest PreparedRequest(const PreparedQuery& prepared, std::int64_t k,
                           const AdpOptions& options) {
  AdpRequest req;
  req.prepared = prepared;
  req.db = prepared.bound_db();
  req.k = k;
  req.options = options;
  return req;
}

/// Terminal-only stream: used for admission failures (shutdown, invalid
/// prepared handle, shedding, enqueue failure).
void FinishStream(const std::shared_ptr<internal::StreamState>& state,
                  Status status) {
  StreamItem end;
  end.kind = StreamItem::Kind::kEnd;
  end.status = std::move(status);
  state->Finish(std::move(end));
}

/// Maps the exception currently being handled (call only from a catch
/// block) to the Status a response, stream terminal or factory call should
/// carry. Sets *genuine_failure, if given, for the outcomes
/// EngineCounters::failures counts (cancellation/expiry are tracked
/// separately).
Status MapException(bool* genuine_failure = nullptr) {
  bool ignored = false;
  if (genuine_failure == nullptr) genuine_failure = &ignored;
  *genuine_failure = true;
  try {
    throw;
  } catch (const CancelledError& e) {
    *genuine_failure = false;
    return Status(e.reason() == CancelReason::kDeadlineExceeded
                      ? StatusCode::kDeadlineExceeded
                      : StatusCode::kCancelled,
                  e.what());
  } catch (const ParseError& e) {
    return Status(StatusCode::kParseError, e.what());
  } catch (const EngineError& e) {
    return Status(e.code(), e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  } catch (...) {
    return Status(StatusCode::kInternal, "solve terminated abnormally");
  }
}

}  // namespace

// --- PreparedQuery -----------------------------------------------------------

Status PreparedQuery::Bind(DbId db) {
  if (engine_ == nullptr || plan_ == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "Bind on a default-constructed PreparedQuery");
  }
  return engine_->BindPrepared(*this, db);
}

// --- AdpEngine ---------------------------------------------------------------

AdpEngine::AdpEngine(const EngineConfig& config)
    : config_(config),
      registry_(std::make_shared<obs::MetricsRegistry>()),
      plan_cache_(config.plan_cache_capacity, registry_.get()),
      pool_(config.num_workers) {
  // Pre-register the engine's instruments once; the hot paths then update
  // through these stable pointers, lock-free.
  requests_ = &registry_->GetCounter(obs::kMRequests);
  failures_ = &registry_->GetCounter(obs::kMFailures);
  binding_hits_ = &registry_->GetCounter(obs::kMBindingHits);
  binding_misses_ = &registry_->GetCounter(obs::kMBindingMisses);
  dedup_hits_ = &registry_->GetCounter(obs::kMDedupHits);
  coalesce_hits_ = &registry_->GetCounter(obs::kMCoalesceHits);
  shed_ = &registry_->GetCounter(obs::kMShed);
  sharded_universe_nodes_ = &registry_->GetCounter(obs::kMShardedUniverse);
  sharded_decompose_nodes_ = &registry_->GetCounter(obs::kMShardedDecompose);
  traces_collected_ = &registry_->GetCounter(obs::kMTracesCollected);
  streams_opened_ = &registry_->GetCounter(obs::kMStreamsOpened);
  stream_items_ = &registry_->GetCounter(obs::kMStreamItems);
  stream_cancelled_ = &registry_->GetCounter(obs::kMStreamCancelled);
  request_latency_ms_ = &registry_->GetHistogram(obs::kMRequestLatencyMs);
  queue_wait_ms_ = &registry_->GetHistogram(obs::kMQueueWaitMs);
  solve_ms_ = &registry_->GetHistogram(obs::kMSolveMs);
  stream_first_item_ms_ = &registry_->GetHistogram(obs::kMStreamFirstItemMs);
  // Counted by tickets and on the registry path alone; registered up front
  // so exporters and counters() see them at zero rather than absent.
  registry_->GetCounter(obs::kMCancelled);
  registry_->GetCounter(obs::kMDeadlineExpired);
  registry_->GetGauge(obs::kMDatabases);
  if (config_.min_shard_groups > 0 || config_.min_shard_components > 0) {
    // A zero threshold disables that axis inside the solver (see
    // Parallelism); run_all is bound once for whichever axes are live.
    sharding_.min_groups = config_.min_shard_groups;
    sharding_.min_components = config_.min_shard_components;
    sharding_.run_all = [this](std::vector<std::function<void()>> tasks) {
      pool_.RunAll(std::move(tasks));
    };
  }
}

AdpEngine::~AdpEngine() {
  // A stream whose consumer stopped draining would leave its producer
  // blocked on the buffer forever, and the pool (last member) joins its
  // workers below — cancel open streams first so every producer can finish.
  CancelOpenStreams();
}

DbId AdpEngine::RegisterDatabase(NamedDatabase db) {
  if (!db.relation_names.empty() &&
      db.relation_names.size() != db.db.num_relations()) {
    throw std::invalid_argument(
        "RegisterDatabase: relation_names must parallel the instances");
  }
  auto shared = std::make_shared<const NamedDatabase>(std::move(db));
  std::lock_guard<std::mutex> lock(mu_);
  const DbId id = next_db_id_++;
  databases_[id].named = std::move(shared);
  registry_->GetGauge(obs::kMDatabases).Add(1);
  return id;
}

DbId AdpEngine::RegisterDatabase(Database db) {
  return RegisterDatabase(NamedDatabase{{}, std::move(db)});
}

std::shared_ptr<const NamedDatabase> AdpEngine::database(DbId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = databases_.find(id);
  return it == databases_.end() ? nullptr : it->second.named;
}

bool AdpEngine::UnregisterDatabase(DbId id) {
  DbEntry victim;  // with its bindings
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = databases_.find(id);
    if (it == databases_.end()) return false;
    victim = std::move(it->second);
    databases_.erase(it);
    registry_->GetGauge(obs::kMDatabases).Add(-1);
  }
  // `victim` releases outside the lock; requests still holding the
  // shared_ptr keep the data alive until they finish.
  return true;
}

void AdpEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  CancelOpenStreams();
}

void AdpEngine::CancelOpenStreams() {
  std::vector<std::shared_ptr<internal::StreamState>> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& weak : streams_) {
      if (auto state = weak.lock()) open.push_back(std::move(state));
    }
    streams_.clear();
  }
  for (const auto& state : open) {
    // The flag makes the producer's CancelledError surface as kShutdown
    // rather than kCancelled (a deadline that already fired keeps its
    // kDeadlineExceeded reason).
    state->NoteShutdown();
    state->Cancel();
  }
}

bool AdpEngine::IsShutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

// --- Keys and admission ------------------------------------------------------

AdpEngine::RequestKeys AdpEngine::KeysFor(const AdpRequest& req) const {
  RequestKeys keys;
  if (!req.prepared.valid()) keys.plan = PlanKey(req);
  // A caller-owned restriction set has no stable identity: never share.
  if (Restricted(req.options)) return keys;
  std::string& key = keys.solve;
  key = req.prepared.valid() ? req.prepared.plan_key_ : keys.plan;
  key += "|d";
  key += std::to_string(TargetDb(req));
  key += "|k";
  key += std::to_string(req.k);
  key += '|';
  key += SolveBits(req.options);
  // Traced requests must never share a solve with untraced ones: a shared
  // response could carry a trace its joiners did not ask for — or worse,
  // none for the one that did.
  if (req.collect_trace) key += "|T";
  return keys;
}

Status AdpEngine::ValidatePrepared(const AdpRequest& req) const {
  const PreparedQuery& prepared = req.prepared;
  if (prepared.engine_ != this) {
    return Status(StatusCode::kInvalidArgument,
                  "PreparedQuery belongs to a different engine");
  }
  if (OptionBits(req.options) != prepared.option_bits_) {
    return Status(StatusCode::kInvalidArgument,
                  "request options disagree with the PreparedQuery's "
                  "classification knobs (use_singleton / universe_strategy "
                  "/ restrictions); re-Prepare with these options");
  }
  return Status();
}

std::optional<AdpResponse> AdpEngine::Reject(const AdpRequest& req) {
  if (IsShutdown()) return ShutdownResponse();  // not counted: not serving
  requests_->Increment();
  if (req.prepared.valid()) {
    Status valid = ValidatePrepared(req);
    if (!valid.ok()) {
      failures_->Increment();
      return FailureResponse(std::move(valid));
    }
  }
  // An already-expired deadline never solves, never takes a shared result
  // and never deserves a queue slot.
  if (req.deadline.has_value() && Now() >= *req.deadline) {
    return DroppedResponse(CancelReason::kDeadlineExceeded);
  }
  return std::nullopt;
}

// --- Prepared queries --------------------------------------------------------

StatusOr<PreparedQuery> AdpEngine::Prepare(const std::string& query_text,
                                           const AdpOptions& options) {
  if (IsShutdown()) {
    return Status(StatusCode::kShutdown, "engine is shut down");
  }
  AdpRequest req;
  req.query_text = query_text;
  req.options = options;
  PreparedQuery prepared;
  prepared.plan_key_ = PlanKey(req);
  try {
    prepared.plan_ = GetPlan(req, prepared.plan_key_, nullptr);
  } catch (...) {
    return MapException();
  }
  prepared.engine_ = this;
  prepared.option_bits_ = OptionBits(req.options);
  return prepared;
}

Status AdpEngine::BindPrepared(PreparedQuery& prepared, DbId db) {
  try {
    prepared.bound_ = BindDatabase(db, *prepared.plan_);
  } catch (...) {
    return MapException();
  }
  prepared.db_ = db;
  return Status();
}

// --- Resolution --------------------------------------------------------------

std::shared_ptr<const CachedPlan> AdpEngine::GetPlan(
    const AdpRequest& req, const std::string& plan_key, bool* hit) {
  return plan_cache_.GetOrBuild(
      plan_key, [&req] { return BuildPlan(req); }, hit);
}

std::shared_ptr<const Database> AdpEngine::BindDatabase(
    DbId db, const CachedPlan& plan) {
  const ConjunctiveQuery& q = plan.query;
  // The body's relation names and atom widths: a hit is a binding whose
  // arities were already checked against atoms of the same widths.
  std::string key;
  for (int i = 0; i < q.num_relations(); ++i) {
    key += '|';
    key += q.relation(i).name;
    key += '/';
    key += std::to_string(q.relation(i).attrs.size());
  }
  std::shared_ptr<const NamedDatabase> named;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = databases_.find(db);
    if (it == databases_.end()) {
      throw EngineError(StatusCode::kUnknownDatabase,
                        "unknown database id " + std::to_string(db));
    }
    named = it->second.named;
    if (!named->relation_names.empty()) {
      auto hit = it->second.bindings.find(key);
      if (hit != it->second.bindings.end()) {
        binding_hits_->Increment();
        return hit->second;
      }
      binding_misses_->Increment();
    }
  }
  // Row-capacity guard: solutions address tuples as (relation, TupleId) and
  // TupleId is 32-bit, so an instance past RelationInstance::MaxRows() could
  // not be reported against. Surfaces as kInvalidArgument rather than a
  // truncated row id downstream.
  for (std::size_t j = 0; j < named->db.num_relations(); ++j) {
    if (named->db.rel(j).size() > RelationInstance::MaxRows()) {
      throw EngineError(
          StatusCode::kInvalidArgument,
          "relation " + std::to_string(j) + " has " +
              std::to_string(named->db.rel(j).size()) +
              " tuples, past the TupleId capacity (" +
              std::to_string(RelationInstance::MaxRows()) + ")");
    }
  }
  if (named->relation_names.empty()) {
    // Positional database: shared as-is, no copy.
    if (named->db.num_relations() !=
        static_cast<std::size_t>(q.num_relations())) {
      throw EngineError(
          StatusCode::kInvalidArgument,
          "positional database has " +
              std::to_string(named->db.num_relations()) +
              " relations, query has " + std::to_string(q.num_relations()));
    }
    for (int i = 0; i < q.num_relations(); ++i) {
      CheckArity(q, i, named->db.rel(static_cast<std::size_t>(i)));
    }
    return std::shared_ptr<const Database>(named, &named->db);
  }

  // Named database: bind by relation name, cached in the database's entry
  // so batches share one bound copy.
  auto bound = std::make_shared<Database>(
      static_cast<std::size_t>(q.num_relations()));
  for (int i = 0; i < q.num_relations(); ++i) {
    const std::string& name = q.relation(i).name;
    bool found = false;
    for (std::size_t j = 0; j < named->relation_names.size(); ++j) {
      if (named->relation_names[j] == name) {
        CheckArity(q, i, named->db.rel(j));
        RelationInstance inst = named->db.rel(j);
        inst.set_root_relation(i);
        bound->rel(static_cast<std::size_t>(i)) = std::move(inst);
        found = true;
        break;
      }
    }
    if (!found) {
      // Binding an empty instance here would silently turn a relation-name
      // typo into a wrong (usually zero-output) answer.
      throw EngineError(StatusCode::kUnknownRelation,
                        "database has no relation named '" + name +
                            "' (query body atom " + std::to_string(i) + ")");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = databases_.find(db);
  if (it == databases_.end()) return bound;  // unregistered meanwhile
  auto& bindings = it->second.bindings;
  if (config_.binding_cache_capacity != 0 &&
      bindings.size() >= config_.binding_cache_capacity) {
    bindings.clear();  // coarse but rare; entries are cheap to rebuild
  }
  return bindings.emplace(key, std::move(bound)).first->second;
}

void AdpEngine::ResolveStatic(const AdpRequest& req,
                              const std::string& plan_key,
                              std::shared_ptr<const Database>* bound,
                              AdpResponse* resp, obs::TraceSink* sink,
                              std::uint32_t trace_parent) {
  Stopwatch plan_sw;
  {
    // The plan span covers parsing too — a miss-path BuildPlan parses,
    // classifies, and linearizes inside this scope.
    obs::Span span(sink, obs::kSpanPlan, trace_parent);
    if (req.prepared.valid()) {
      // Prepared hot path: static work pinned, zero plan-cache traffic.
      resp->plan = req.prepared.plan_;
      *bound = req.prepared.bound_;  // null when the handle is unbound
      resp->plan_cache_hit = true;
    } else {
      resp->plan = GetPlan(req, plan_key, &resp->plan_cache_hit);
    }
    span.Tag("cache_hit", std::int64_t{resp->plan_cache_hit ? 1 : 0});
  }
  resp->plan_ms = plan_sw.ElapsedMs();

  if (*bound == nullptr) {
    obs::Span span(sink, obs::kSpanBind, trace_parent);
    *bound = BindDatabase(req.db, *resp->plan);
  }
}

AdpResponse AdpEngine::Solve(const AdpRequest& req,
                             const std::string& plan_key,
                             const CancelToken* cancel, double queue_wait_ms,
                             const AdpEmitter* emit,
                             std::shared_ptr<const CachedPlan>* plan) {
  AdpResponse resp;
  resp.queue_ms = queue_wait_ms;
  Stopwatch total;
  std::unique_ptr<obs::TraceSink> sink;
  obs::Span root;
  if (req.collect_trace) {
    // The origin is backdated by the queue wait so the synthetic adp.queue
    // span below starts at t=0 and the trace covers the request's full
    // wall time, not just the post-dequeue part.
    sink = std::make_unique<obs::TraceSink>(obs::TraceSink::kDefaultMaxSpans,
                                            queue_wait_ms);
    if (queue_wait_ms > 0.0) {
      sink->AddCompleteSpan(obs::kSpanQueue, 0, 0.0, queue_wait_ms);
    }
    root = obs::Span(sink.get(),
                     emit != nullptr ? obs::kSpanStream : obs::kSpanRequest);
    root.Tag("k", req.k);
  }
  try {
    // A request cancelled or expired before reaching here must not touch
    // the caches at all ("never runs the solve").
    if (cancel != nullptr) cancel->ThrowIfCancelled();

    std::shared_ptr<const Database> bound;
    ResolveStatic(req, plan_key, &bound, &resp, sink.get(), root.id());
    if (plan != nullptr) *plan = resp.plan;

    AdpOptions options = req.options;
    options.plan = &resp.plan->dispatch;
    options.stats = &resp.stats;
    options.parallelism = sharding_.run_all ? &sharding_ : nullptr;
    options.cancel = cancel;
    options.trace = sink.get();
    Stopwatch solve_sw;
    {
      obs::Span solve_span(sink.get(), obs::kSpanSolve, root.id());
      options.trace_parent = solve_span.id();
      resp.solution =
          ComputeAdp(resp.plan->query, *bound, req.k, options, emit);
    }
    resp.solve_ms = solve_sw.ElapsedMs();
    solve_ms_->Observe(resp.solve_ms);
    if (resp.stats.sharded_universe_nodes > 0 ||
        resp.stats.sharded_decompose_nodes > 0) {
      // Rolled up only here, where the solve actually ran: deduped and
      // coalesced copies of this response must not re-count its shards.
      sharded_universe_nodes_->Increment(
          static_cast<std::uint64_t>(resp.stats.sharded_universe_nodes));
      sharded_decompose_nodes_->Increment(
          static_cast<std::uint64_t>(resp.stats.sharded_decompose_nodes));
    }
  } catch (...) {
    // Streams do not count into EngineCounters::failures: their terminal
    // Status is the outcome signal.
    bool genuine_failure = false;
    resp.status = MapException(&genuine_failure);
    if (genuine_failure && emit == nullptr) failures_->Increment();
  }
  resp.total_ms = total.ElapsedMs();
  if (emit == nullptr) {
    request_latency_ms_->Observe(queue_wait_ms + resp.total_ms);
  }
  if (sink != nullptr) {
    root.End();
    resp.trace = std::make_shared<const obs::Trace>(sink->Take());
    traces_collected_->Increment();
  }
  return resp;
}

AdpResponse AdpEngine::SolveAndPublish(const AdpRequest& req,
                                       const RequestKeys& keys,
                                       const std::shared_ptr<ResultSlot>& slot,
                                       double queue_wait_ms) {
  AdpResponse resp;
  try {
    resp = Solve(req, keys.plan, &slot->group->solve_token(), queue_wait_ms);
  } catch (...) {
    // Solve absorbs solver failures itself; anything else must still
    // retire the slot (followers would hang forever on a leaked leader).
    resp = FailureResponse(
        Status(StatusCode::kInternal, "solve terminated abnormally"));
    failures_->Increment();
  }
  Publish(keys.solve, slot, resp);
  return resp;
}

// --- Result table ------------------------------------------------------------

AdpEngine::Admission AdpEngine::Admit(
    const AdpRequest& req, const std::string& key,
    const std::shared_ptr<internal::TicketImpl>& ticket, bool may_lead) {
  Admission out;
  std::lock_guard<std::mutex> lock(mu_);
  bool shared = !key.empty() && databases_.contains(TargetDb(req));
  auto it = shared ? results_.find(key) : results_.end();
  if (it != results_.end()) {
    ResultSlot& slot = *it->second;
    if (slot.response != nullptr) {
      if (MsBetween(slot.completed, Now()) <= config_.coalesce_window_ms) {
        coalesce_hits_->Increment();
        out.coalesced = slot.response;
        return out;
      }
      // Expired: a fresh slot replaces it below.
    } else if (ticket != nullptr) {
      // AddParticipant registers and fired-checks atomically under the
      // group mutex, so a successful join can never land on a solve that
      // was cancelled between probe and registration.
      if (slot.group->AddParticipant(req.deadline)) {
        dedup_hits_->Increment();
        ticket->group = slot.group;
        slot.followers.push_back(ticket);
        out.joined = true;
        return out;
      }
      // Stale slot (solve already torn down): replaced below.
    } else if (slot.group->solve_token().Check() == CancelReason::kNone) {
      // Sync (null ticket): the caller solves alone — joining would couple
      // its latency to queue depth.
      shared = false;
    }
  }
  if (!may_lead) return out;
  out.lead = std::make_shared<ResultSlot>();
  out.lead->group = std::make_shared<internal::SolveCancelGroup>();
  out.lead->group->AddParticipant(req.deadline);  // fresh: always succeeds
  out.lead->leader = ticket;
  if (ticket != nullptr) ticket->group = out.lead->group;
  // A stale or expired slot's own publish finds itself replaced and leaves
  // this one alone (EraseSlot compares identity).
  if (shared) results_[key] = out.lead;
  return out;
}

void AdpEngine::EraseSlot(const std::string& key, const ResultSlot* slot) {
  auto it = results_.find(key);
  if (it != results_.end() && it->second.get() == slot) results_.erase(it);
}

void AdpEngine::Publish(const std::string& key,
                        const std::shared_ptr<ResultSlot>& slot,
                        const AdpResponse& resp) {
  // The deep copy (witness tuples can be large) happens outside the lock.
  std::shared_ptr<const AdpResponse> kept;
  if (config_.coalesce_window_ms > 0 && resp.status.ok() && !key.empty()) {
    kept = std::make_shared<const AdpResponse>(resp);
  }
  std::shared_ptr<internal::TicketImpl> leader;
  std::vector<std::shared_ptr<internal::TicketImpl>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(key);
    if (it != results_.end() && it->second == slot) {
      if (kept != nullptr) {
        const auto now = Now();
        slot->response = std::move(kept);
        slot->completed = now;
        completed_.emplace_back(key, slot);
        while (completed_.size() > kRecentResultsCapacity ||
               MsBetween(completed_.front().second->completed, now) >
                   config_.coalesce_window_ms) {
          EraseSlot(completed_.front().first, completed_.front().second.get());
          completed_.pop_front();
        }
      } else {
        results_.erase(it);
      }
    }
    leader = std::move(slot->leader);
    followers.swap(slot->followers);
  }
  if (leader != nullptr) internal::Deliver(*leader, resp);
  if (followers.empty()) return;
  AdpResponse shared = resp;
  shared.deduped = true;
  for (const auto& f : followers) internal::Deliver(*f, shared);
}

// --- Request entry points ----------------------------------------------------

AdpResponse AdpEngine::ExecuteImpl(const AdpRequest& req) {
  if (std::optional<AdpResponse> rejected = Reject(req)) {
    return *std::move(rejected);
  }
  const RequestKeys keys = KeysFor(req);
  // The synchronous path leads but never follows (see Admit).
  const Admission admission = Admit(req, keys.solve, nullptr);
  if (admission.coalesced != nullptr) {
    return CoalescedCopy(*admission.coalesced);
  }
  return SolveAndPublish(req, keys, admission.lead, 0.0);
}

AdpResponse AdpEngine::Execute(const AdpRequest& req) {
  AdpResponse resp = ExecuteImpl(req);
  // The sync path has no ticket, so terminal cancelled/expired outcomes
  // are counted here (async paths count through Deliver).
  internal::CountTerminal(*registry_, resp.status.code());
  return resp;
}

AdpResponse AdpEngine::Execute(const PreparedQuery& prepared, std::int64_t k,
                               const AdpOptions& options) {
  return Execute(PreparedRequest(prepared, k, options));
}

std::future<AdpResponse> AdpEngine::Submit(AdpRequest req, AdpTicket* ticket) {
  // Future-flavored SubmitAsync: same dedup, same nested-submission
  // inlining (a worker-thread caller gets a ready future back).
  auto promise = std::make_shared<std::promise<AdpResponse>>();
  std::future<AdpResponse> fut = promise->get_future();
  AdpTicket t = SubmitAsync(std::move(req), [promise](AdpResponse r) {
    promise->set_value(std::move(r));
  });
  if (ticket != nullptr) *ticket = std::move(t);
  return fut;
}

std::future<AdpResponse> AdpEngine::Submit(const PreparedQuery& prepared,
                                           std::int64_t k,
                                           const AdpOptions& options,
                                           AdpTicket* ticket) {
  return Submit(PreparedRequest(prepared, k, options), ticket);
}

AdpTicket AdpEngine::SubmitAsync(AdpRequest req,
                                 std::function<void(AdpResponse)> done) {
  auto impl = std::make_shared<internal::TicketImpl>();
  impl->done = std::move(done);
  impl->metrics = registry_;
  if (req.deadline.has_value()) impl->own.SetDeadline(*req.deadline);
  AdpTicket ticket(impl);

  if (pool_.IsWorkerThread()) {
    // Nested submission: run inline rather than deadlocking the pool.
    internal::Deliver(*impl, ExecuteImpl(req));
    return ticket;
  }
  if (std::optional<AdpResponse> rejected = Reject(req)) {
    internal::Deliver(*impl, *std::move(rejected));
    return ticket;
  }
  const RequestKeys keys = KeysFor(req);
  // Past the configured backlog new work is shed (kOverloaded) instead of
  // queued; joining an in-flight solve or a coalesced hit costs no slot.
  const bool may_lead = config_.max_queue_depth == 0 ||
                        pool_.queued() < config_.max_queue_depth;
  const Admission admission = Admit(req, keys.solve, impl, may_lead);
  if (admission.coalesced != nullptr) {
    internal::Deliver(*impl, CoalescedCopy(*admission.coalesced));
    return ticket;
  }
  if (admission.lead == nullptr) {
    if (!admission.joined) {
      shed_->Increment();
      internal::Deliver(*impl, OverloadedResponse());
    }
    return ticket;
  }

  // From here the slot MUST be retired on every path — a leaked leader
  // would hang all future identical requests — so both the solve and the
  // enqueue are exception-proofed.
  const std::shared_ptr<ResultSlot> lead = admission.lead;
  const TaskAttrs attrs{req.priority, req.deadline};
  try {
    const MonotonicClock::time_point enqueued = Now();
    pool_.Submit([this, req = std::move(req), keys, lead, enqueued] {
      const double queue_wait_ms = MsBetween(enqueued, Now());
      queue_wait_ms_->Observe(queue_wait_ms);
      const CancelReason queued = lead->group->solve_token().Check();
      if (queued != CancelReason::kNone) {
        // Cancelled or expired while queued: the solve never runs — no
        // plan probe, no binding probe, no ComputeAdp.
        Publish(keys.solve, lead, DroppedResponse(queued));
      } else {
        SolveAndPublish(req, keys, lead, queue_wait_ms);
      }
    }, attrs);
  } catch (...) {
    // The ticket delivery is the sole failure signal (`done` fires exactly
    // once); rethrowing too would double-report the submission.
    failures_->Increment();
    Publish(keys.solve, lead,
            FailureResponse(
                Status(StatusCode::kInternal, "failed to enqueue request")));
  }
  return ticket;
}

// --- Streaming ---------------------------------------------------------------

ResultStream AdpEngine::StreamAdp(AdpRequest req) {
  auto state = std::make_shared<internal::StreamState>(kStreamBufferItems);
  state->opened = Now();
  if (req.deadline.has_value()) {
    state->cancel_token().SetDeadline(*req.deadline);
  }
  ResultStream stream(state);

  {
    // Shutdown gate and registration under ONE critical section: a stream
    // admitted here is in streams_ before Shutdown() can drain the list,
    // so it is guaranteed to be cancelled — never left to complete after
    // Shutdown() returned. kShutdown rejections get no counters attached:
    // they are excluded from streams_opened, and counting their terminal
    // would let stream_cancelled exceed streams_opened.
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      FinishStream(state,
                   Status(StatusCode::kShutdown, "engine is shut down"));
      return stream;
    }
    state->metrics = registry_;
    state->items_total = stream_items_;
    state->cancelled_total = stream_cancelled_;
    // Prune streams that already finished (their producers released the
    // state) so the open-stream list stays proportional to live streams.
    std::erase_if(streams_, [](const auto& weak) { return weak.expired(); });
    streams_.push_back(state);
  }
  streams_opened_->Increment();
  if (req.prepared.valid()) {
    Status valid = ValidatePrepared(req);
    if (!valid.ok()) {
      FinishStream(state, std::move(valid));
      return stream;
    }
  }

  if (pool_.IsWorkerThread()) {
    // Nested streaming: no independent consumer can drain while we
    // produce, so the capacity bound would deadlock — buffer everything
    // and return a fully-produced stream.
    state->MakeUnbounded();
    ProduceStream(req, state);
    return stream;
  }
  // Load shedding mirrors SubmitAsync: a producer task needs a queue slot,
  // and past the configured backlog the stream is refused with a terminal
  // kOverloaded instead. (Inline nested production above costs no slot and
  // is never shed.)
  if (config_.max_queue_depth > 0 &&
      pool_.queued() >= config_.max_queue_depth) {
    shed_->Increment();
    FinishStream(state, Status(StatusCode::kOverloaded,
                               "stream shed: worker queue exceeds "
                               "EngineConfig::max_queue_depth"));
    return stream;
  }
  const TaskAttrs attrs{req.priority, req.deadline};
  try {
    pool_.Submit(
        [this, req = std::move(req), state] { ProduceStream(req, state); },
        attrs);
  } catch (...) {
    FinishStream(state,
                 Status(StatusCode::kInternal, "failed to enqueue stream"));
  }
  return stream;
}

ResultStream AdpEngine::StreamAdp(const PreparedQuery& prepared,
                                  std::int64_t k, const AdpOptions& options) {
  return StreamAdp(PreparedRequest(prepared, k, options));
}

void AdpEngine::ProduceStream(
    const AdpRequest& req, const std::shared_ptr<internal::StreamState>& state) {
  // Queue wait = StreamAdp admission to here (0-ish for inline production).
  const double queue_wait_ms = MsBetween(state->opened, Now());
  queue_wait_ms_->Observe(queue_wait_ms);
  // Time-to-first-item, measured from admission at the first Emit (profile
  // or witness batch — whichever the consumer could see first). The plan
  // goes out just ahead of it, so a consumer rendering names has it.
  std::shared_ptr<const CachedPlan> plan;  // resolved by Solve
  bool first_item = true;
  const auto emit = [&](StreamItem item) {
    if (first_item) {
      first_item = false;
      stream_first_item_ms_->Observe(MsBetween(state->opened, Now()));
      state->SetPlan(plan);
    }
    state->Emit(std::move(item));
  };
  AdpEmitter emitter;
  emitter.intermediate_witnesses = req.stream_intermediate_witnesses;
  emitter.profile = [&](std::int64_t k, std::int64_t cost) {
    StreamItem item;
    item.kind = StreamItem::Kind::kProfile;
    item.k = k;
    item.cost = cost;
    item.feasible = cost < kInfCost;
    emit(std::move(item));
  };
  emitter.witnesses = [&](std::int64_t k, const std::vector<TupleRef>& tuples) {
    const std::size_t batch = config_.stream_batch_tuples == 0
                                  ? std::max<std::size_t>(tuples.size(), 1)
                                  : config_.stream_batch_tuples;
    for (std::size_t off = 0; off < tuples.size(); off += batch) {
      state->cancel_token().ThrowIfCancelled();
      StreamItem item;
      item.kind = StreamItem::Kind::kWitnesses;
      item.k = k;
      const auto from = tuples.begin() + static_cast<std::ptrdiff_t>(off);
      item.witnesses.assign(
          from, from + static_cast<std::ptrdiff_t>(
                           std::min(batch, tuples.size() - off)));
      emit(std::move(item));
    }
  };
  AdpResponse resp =
      Solve(req, req.prepared.valid() ? std::string() : PlanKey(req),
            &state->cancel_token(), queue_wait_ms, &emitter, &plan);
  // A stream that failed at binding emitted nothing; it still carries its
  // plan, as a response does.
  state->SetPlan(std::move(resp.plan));

  StreamItem end;
  end.kind = StreamItem::Kind::kEnd;
  end.status = std::move(resp.status);
  if (end.status.code() == StatusCode::kCancelled &&
      state->shutdown_requested()) {
    // A producer torn down by Shutdown(); an expired deadline keeps its
    // kDeadlineExceeded.
    end.status = Status(StatusCode::kShutdown, end.status.message());
  }
  end.cost = resp.solution.cost;
  end.feasible = resp.solution.feasible;
  end.exact = resp.solution.exact;
  end.output_count = resp.solution.output_count;
  end.removed_outputs = resp.solution.removed_outputs;
  end.stats = resp.stats;
  end.plan_cache_hit = resp.plan_cache_hit;
  end.plan_ms = resp.plan_ms;
  end.solve_ms = resp.solve_ms;
  end.total_ms = resp.total_ms;
  end.queue_ms = resp.queue_ms;
  end.trace = std::move(resp.trace);
  state->Finish(std::move(end));
}

// --- Introspection -----------------------------------------------------------

EngineCounters AdpEngine::counters() const {
  const obs::MetricsSnapshot snap = registry_->Snapshot();
  const auto count = [&snap](const char* name) {
    return snap.counters.at(name);
  };
  const auto gauge = [&snap](const char* name) {
    return static_cast<std::size_t>(snap.gauges.at(name));
  };
  EngineCounters c;
  c.requests = count(obs::kMRequests);
  c.failures = count(obs::kMFailures);
  c.plan_hits = count(obs::kMPlanCacheHits);
  c.plan_misses = count(obs::kMPlanCacheMisses);
  c.binding_hits = count(obs::kMBindingHits);
  c.binding_misses = count(obs::kMBindingMisses);
  c.dedup_hits = count(obs::kMDedupHits);
  c.coalesce_hits = count(obs::kMCoalesceHits);
  c.cancelled = count(obs::kMCancelled);
  c.deadline_expired = count(obs::kMDeadlineExpired);
  c.shed = count(obs::kMShed);
  c.sharded_universe_nodes = count(obs::kMShardedUniverse);
  c.sharded_decompose_nodes = count(obs::kMShardedDecompose);
  c.streams_opened = count(obs::kMStreamsOpened);
  c.stream_items = count(obs::kMStreamItems);
  c.stream_cancelled = count(obs::kMStreamCancelled);
  c.plan_cache_size = gauge(obs::kMPlanCacheSize);
  c.databases = gauge(obs::kMDatabases);
  return c;
}

obs::MetricsRegistry& AdpEngine::metrics() const { return *registry_; }

std::shared_ptr<obs::MetricsRegistry> AdpEngine::metrics_shared() const {
  return registry_;
}

}  // namespace adp
