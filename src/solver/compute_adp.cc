#include "solver/compute_adp.h"

#include <algorithm>
#include <memory>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/graph.h"
#include "query/transform.h"
#include "relational/join.h"
#include "flow/max_flow.h"
#include "solver/boolean.h"
#include "solver/decompose.h"
#include "solver/drastic.h"
#include "solver/greedy.h"
#include "solver/plan.h"
#include "solver/singleton.h"
#include "solver/universe.h"

namespace adp {
namespace {

// Algorithm 2 dispatch, preferring the precomputed plan when one is set.
// The plan entry (if any) is handed back so case handlers reuse it without
// a second canonical-key lookup.
AdpCase Classify(const ConjunctiveQuery& q, const AdpOptions& options,
                 const PlanEntry** entry_out = nullptr) {
  const PlanEntry* entry =
      options.plan != nullptr ? options.plan->Find(q) : nullptr;
  if (entry_out != nullptr) *entry_out = entry;
  if (entry != nullptr) return entry->op;
  return ClassifyAdpCase(q, options);
}

AdpNode TrivialNode(const AdpOptions& options) {
  AdpNode node;
  node.profile = CostProfile();
  node.exact = true;
  if (!options.counting_only) {
    node.report = [](std::int64_t) { return std::vector<TupleRef>(); };
  }
  return node;
}

AdpNode HeuristicNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options) {
  if (options.heuristic == AdpOptions::Heuristic::kDrastic && q.IsFull()) {
    return DrasticNode(q, db, cap, options);
  }
  return GreedyNode(q, db, cap, options);
}

AdpNode BooleanNode(const ConjunctiveQuery& q, const Database& db,
                    std::int64_t cap, const AdpOptions& options,
                    const PlanEntry* entry) {
  const std::int64_t count = static_cast<std::int64_t>(
      CountOutputs(q.body(), q.head(), db));
  if (count == 0 || cap <= 0) return TrivialNode(options);
  if (options.stats) ++options.stats->boolean_nodes;
  // With a plan entry, the §7.1 permutation search was done once at plan
  // time: reuse its arrangement, or skip straight to the fallback if it
  // proved none exists.
  const std::vector<int>* planned_order = nullptr;
  bool planned_no_order = false;
  if (entry != nullptr && entry->op == AdpCase::kBoolean) {
    if (entry->linear_order) {
      planned_order = &*entry->linear_order;
    } else {
      planned_no_order = true;
    }
  }
  if (auto exact = planned_no_order
                       ? std::nullopt
                       : SolveBooleanExact(q, db, options.restrictions,
                                           planned_order)) {
    AdpNode node;
    node.exact = true;
    // A cut at or above kInfCapacity means the query cannot be falsified
    // with the deletable tuples (possible only under §9 restrictions).
    const std::int64_t res = exact->resilience >= kInfCapacity
                                 ? kInfCost
                                 : exact->resilience;
    node.profile = CostProfile({0, res});
    if (!options.counting_only) {
      auto cut = std::make_shared<std::vector<TupleRef>>(
          std::move(exact->cut));
      node.report = [cut](std::int64_t j) {
        return j > 0 ? *cut : std::vector<TupleRef>();
      };
    }
    return node;
  }
  // No linear arrangement (possible only for NP-hard boolean queries, or
  // exotic triad-free shapes outside the paper's scope): greedy fallback.
  if (options.stats) ++options.stats->boolean_fallbacks;
  return GreedyNode(q, db, cap, options);
}

const char* SpanNameFor(AdpCase c) {
  switch (c) {
    case AdpCase::kBoolean: return obs::kSpanNodeBoolean;
    case AdpCase::kSingleton: return obs::kSpanNodeSingleton;
    case AdpCase::kUniverse: return obs::kSpanNodeUniverse;
    case AdpCase::kDecompose: return obs::kSpanNodeDecompose;
    case AdpCase::kHeuristic: return obs::kSpanNodeHeuristic;
  }
  return obs::kSpanNodeHeuristic;  // unreachable
}

// The Algorithm-2 dispatch switch, shared by the traced and untraced paths
// of ComputeAdpNode.
AdpNode DispatchCase(AdpCase c, const ConjunctiveQuery& q, const Database& db,
                     std::int64_t cap, const AdpOptions& options,
                     const PlanEntry* entry) {
  switch (c) {
    case AdpCase::kBoolean:
      return BooleanNode(q, db, cap, options, entry);
    case AdpCase::kSingleton:
      return SingletonNode(q, db, cap, options);
    case AdpCase::kUniverse:
      return UniverseNode(q, db, cap, options);
    case AdpCase::kDecompose:
      return DecomposeNode(q, db, cap, options);
    case AdpCase::kHeuristic:
      return HeuristicNode(q, db, cap, options);
  }
  return TrivialNode(options);  // unreachable
}

}  // namespace

void MergeAdpStats(AdpStats& into, const AdpStats& from) {
  into.boolean_nodes += from.boolean_nodes;
  into.boolean_fallbacks += from.boolean_fallbacks;
  into.singleton_nodes += from.singleton_nodes;
  into.universe_nodes += from.universe_nodes;
  into.decompose_nodes += from.decompose_nodes;
  into.greedy_leaves += from.greedy_leaves;
  into.drastic_leaves += from.drastic_leaves;
  into.universe_groups += from.universe_groups;
  into.sharded_universe_nodes += from.sharded_universe_nodes;
  into.sharded_decompose_nodes += from.sharded_decompose_nodes;
}

bool operator==(const AdpStats& a, const AdpStats& b) {
  return a.boolean_nodes == b.boolean_nodes &&
         a.boolean_fallbacks == b.boolean_fallbacks &&
         a.singleton_nodes == b.singleton_nodes &&
         a.universe_nodes == b.universe_nodes &&
         a.decompose_nodes == b.decompose_nodes &&
         a.greedy_leaves == b.greedy_leaves &&
         a.drastic_leaves == b.drastic_leaves &&
         a.universe_groups == b.universe_groups &&
         a.sharded_universe_nodes == b.sharded_universe_nodes &&
         a.sharded_decompose_nodes == b.sharded_decompose_nodes;
}

bool StatsAgreeModuloSharding(const AdpStats& a, const AdpStats& b) {
  AdpStats am = a;
  AdpStats bm = b;
  am.sharded_universe_nodes = bm.sharded_universe_nodes = 0;
  am.sharded_decompose_nodes = bm.sharded_decompose_nodes = 0;
  return am == bm;
}

AdpCase ClassifyAdpCase(const ConjunctiveQuery& q, const AdpOptions& options) {
  if (q.IsBoolean()) return AdpCase::kBoolean;
  // Singleton's optimality argument assumes any tuple may be deleted; with
  // restrictions the recursion continues to restriction-aware leaves.
  const bool restricted =
      options.restrictions != nullptr && !options.restrictions->Empty();
  if (options.use_singleton && !restricted && IsSingletonQuery(q, nullptr)) {
    return AdpCase::kSingleton;
  }
  if (!q.UniversalAttrs().Empty()) return AdpCase::kUniverse;
  if (!IsConnected(q)) return AdpCase::kDecompose;
  return AdpCase::kHeuristic;
}

AdpNode ComputeAdpNode(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t cap, const AdpOptions& options) {
  ThrowIfCancelled(options);
  if (cap <= 0) return TrivialNode(options);
  const PlanEntry* entry = nullptr;
  const AdpCase c = Classify(q, options, &entry);
  if (options.trace == nullptr) {
    // Tracing disabled: this null check — at the same boundary that polled
    // the cancel token above — is the layer's entire per-node overhead.
    return DispatchCase(c, q, db, cap, options, entry);
  }
  obs::Span span(options.trace, SpanNameFor(c), options.trace_parent);
  span.Tag("cap", cap);
  AdpOptions traced = options;
  traced.trace_parent = span.id();
  return DispatchCase(c, q, db, cap, traced, entry);
}

AdpSolution ComputeAdp(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t k, const AdpOptions& options,
                       const AdpEmitter* emit) {
  ThrowIfCancelled(options);
  // Lemma 12: push selections down first.
  const ConjunctiveQuery* query = &q;
  const Database* data = &db;
  QueryDb pushed;
  if (q.HasSelections()) {
    pushed = ApplySelections(q, db);
    query = &pushed.query;
    data = &pushed.db;
  }

  AdpSolution solution;
  solution.output_count = static_cast<std::int64_t>(
      CountOutputs(query->body(), query->head(), *data));
  if (k > solution.output_count) {
    solution.feasible = false;
    solution.cost = kInfCost;
    return solution;
  }
  if (k <= 0) {
    solution.removed_outputs = 0;
    return solution;
  }

  if (emit == nullptr && Classify(*query, options) == AdpCase::kDecompose) {
    // Root fast path: avoids profiles of length k (k can be a fraction of a
    // cross-product-sized |Q(D)|). Bypasses ComputeAdpNode, so it opens its
    // own node span.
    obs::Span span(options.trace, obs::kSpanNodeDecompose,
                   options.trace_parent);
    span.Tag("cap", k);
    span.Tag("root_single_k", std::int64_t{1});
    AdpOptions inner = options;
    inner.trace_parent = span.id() != 0 ? span.id() : options.trace_parent;
    DecomposeSingleResult res =
        SolveDecomposeSingleK(*query, *data, k, inner);
    solution.cost = res.cost;
    solution.exact = res.exact;
    solution.tuples = std::move(res.tuples);
  } else {
    AdpNode node = ComputeAdpNode(*query, *data, k, options);
    solution.cost = node.profile.At(k);
    solution.exact = node.exact;
    const bool reports = !options.counting_only && node.report != nullptr;
    if (emit != nullptr) {
      // One DP covers every target 1..k: its profile is streamed as is,
      // never re-solved per target.
      for (std::int64_t j = 1; j <= k; ++j) {
        ThrowIfCancelled(options);
        const std::int64_t cost = node.profile.At(j);
        emit->profile(j, cost);
        if (emit->intermediate_witnesses && j < k && reports &&
            cost < kInfCost) {
          emit->witnesses(j, node.report(j));
        }
      }
    }
    if (reports && solution.cost < kInfCost) {
      obs::Span span(options.trace, obs::kSpanWitnesses,
                     options.trace_parent);
      solution.tuples = node.report(k);
    }
  }
  if (solution.cost >= kInfCost) {
    // Reachable only under deletion restrictions: the target cannot be met
    // with the deletable tuples alone.
    solution.feasible = false;
    return solution;
  }

  if (!options.counting_only) {
    if (emit != nullptr) {
      // Enumeration order: sorting first would hold back the first batch.
      emit->witnesses(k, solution.tuples);
    } else {
      obs::Span span(options.trace, obs::kSpanNormalize,
                     options.trace_parent);
      NormalizeTupleRefs(solution.tuples);
    }
    if (options.verify) {
      obs::Span span(options.trace, obs::kSpanVerify, options.trace_parent);
      solution.removed_outputs = CountRemovedOutputs(q, db, solution.tuples);
    }
    if (emit != nullptr) solution.tuples = {};
  }
  return solution;
}

}  // namespace adp
