#include "solver/compute_adp.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/fingerprint.h"
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

AdpNode TrivialNode(const AdpOptions& options) {
  AdpNode node;
  node.profile = CostProfile();
  node.exact = true;
  if (!options.counting_only) {
    node.report = [](std::int64_t) { return std::vector<TupleRef>(); };
  }
  return node;
}

// Whether a heuristic leaf runs DrasticGreedy (Algorithm 7), which needs a
// full head, rather than GreedyForCQ.
bool UsesDrastic(const ConjunctiveQuery& q, const AdpOptions& options) {
  return options.heuristic == AdpOptions::Heuristic::kDrastic && q.IsFull();
}

AdpNode HeuristicNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const JoinCounts* counts) {
  if (UsesDrastic(q, options)) return DrasticNode(q, db, cap, options, counts);
  return GreedyNode(q, db, cap, options, counts);
}

AdpNode BooleanNode(const DispatchPlan& plan, const Database& db,
                    std::int64_t cap, const AdpOptions& options,
                    const JoinCounts* counts) {
  const ConjunctiveQuery& q = plan.query;
  JoinCounts own;
  const std::int64_t count =
      NodeCounts(q, db, CountReads{}, options, counts, own).outputs;
  if (count == 0 || cap <= 0) return TrivialNode(options);
  if (options.stats) ++options.stats->boolean_nodes;
  // The §7.1 permutation search ran once, when the plan was compiled: no
  // arrangement means it proved none exists.
  if (auto exact = plan.linear_order
                       ? SolveBooleanExact(q, db, options.restrictions,
                                           &*plan.linear_order)
                       : std::nullopt) {
    AdpNode node;
    node.exact = true;
    // A cut at or above kInfCapacity means the query cannot be falsified
    // with the deletable tuples (possible only under §9 restrictions).
    if (exact->resilience < kInfCapacity) {
      node.profile.Append(exact->resilience, 1);
    }
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
  return GreedyNode(q, db, cap, options, counts);
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
// of SolveNode.
AdpNode DispatchCase(const DispatchPlan& node, const Database& db,
                     std::int64_t cap, const AdpOptions& options,
                     const JoinCounts* counts) {
  switch (node.op) {
    case AdpCase::kBoolean:
      return BooleanNode(node, db, cap, options, counts);
    case AdpCase::kSingleton:
      return SingletonNode(node.query, db, cap, options, counts);
    case AdpCase::kUniverse:
      return UniverseNode(node, db, cap, options);
    case AdpCase::kDecompose:
      return DecomposeNode(node, db, cap, options, counts);
    case AdpCase::kHeuristic:
      return HeuristicNode(node.query, db, cap, options, counts);
  }
  return TrivialNode(options);  // unreachable
}

}  // namespace

AdpNode SolveNode(const DispatchPlan& node, const Database& db,
                  std::int64_t cap, const AdpOptions& options,
                  const JoinCounts* counts) {
  ThrowIfCancelled(options);
  if (cap <= 0) return TrivialNode(options);
  if (options.trace == nullptr) {
    // Tracing disabled: this null check — at the same boundary that polled
    // the cancel token — is the layer's entire per-node overhead.
    return DispatchCase(node, db, cap, options, counts);
  }
  obs::Span span(options.trace, SpanNameFor(node.op), options.trace_parent);
  span.Tag("cap", cap);
  AdpOptions traced = options;
  traced.trace_parent = span.id();
  return DispatchCase(node, db, cap, traced, counts);
}

std::vector<AdpNode> SolveChildren(std::size_t count, std::size_t min_shard,
                                   const char* shard_span,
                                   const AdpOptions& options,
                                   const ChildSolve& solve, bool* sharded) {
  const Parallelism* par = options.parallelism;
  *sharded = par != nullptr && par->run_all != nullptr && min_shard > 0 &&
             count >= std::max<std::size_t>(min_shard, 2);
  std::vector<AdpNode> children(count);
  if (!*sharded) {
    obs::Span inert;
    for (std::size_t i = 0; i < count; ++i) {
      children[i] = solve(i, options, inert);
    }
    return children;
  }
  // Children land at fixed indices, so the caller combines them in the
  // order the sequential loop would. The per-shard stats merge below is a
  // commutative fold: its total does not depend on completion order.
  std::vector<AdpStats> shard_stats(options.stats ? count : 0);
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back([&, i] {
      try {
        AdpOptions shard = options;
        if (options.stats) shard.stats = &shard_stats[i];
        // Shards run on arbitrary pool threads: the explicit parent link
        // (not any thread-local ambient span) keeps the trace a tree.
        obs::Span span(options.trace, shard_span, options.trace_parent);
        span.Tag("shard", static_cast<std::int64_t>(i));
        shard.trace_parent = span.id();
        children[i] = solve(i, shard, span);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  par->run_all(std::move(tasks));
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const AdpStats& s : shard_stats) MergeAdpStats(*options.stats, s);
  return children;
}

CountReads ReadsTupleCounts(const DispatchPlan& node,
                            const AdpOptions& options) {
  const ConjunctiveQuery& q = node.query;
  CountReads reads;
  switch (node.op) {
    case AdpCase::kSingleton:
      reads = SingletonReads(q);
      break;
    case AdpCase::kHeuristic:
      if (UsesDrastic(q, options)) {
        reads = DrasticReads(q, options);
      } else {
        reads.joins = true;  // GreedyForCQ's ProvenanceIndex
      }
      break;
    case AdpCase::kBoolean:
      // No linear arrangement: the greedy fallback's ProvenanceIndex.
      reads.joins = !node.linear_order.has_value();
      break;
    case AdpCase::kDecompose:
      for (std::size_t c = 0; c < node.children.size(); ++c) {
        const CountReads child = ReadsTupleCounts(node.children[c], options);
        const std::vector<int>& rels = node.components[c];
        for (std::size_t j = 0; j < rels.size(); ++j) {
          if (child.Reads(j)) reads.Add(static_cast<std::size_t>(rels[j]));
        }
        reads.joins = reads.joins || child.joins;
      }
      break;
    case AdpCase::kUniverse:
      break;  // each group counts for itself
  }
  return reads;
}

JoinCounts CountNode(const ConjunctiveQuery& q, const Database& db,
                     const CountReads& reads, const AdpOptions& options) {
  if (options.stats) ++options.stats->count_passes;
  return CountComponents(q.body(), q.head(), db, reads);
}

const JoinCounts& NodeCounts(const ConjunctiveQuery& q, const Database& db,
                             const CountReads& reads,
                             const AdpOptions& options,
                             const JoinCounts* handed, JoinCounts& own) {
  if (handed != nullptr && handed->reads.Covers(reads)) return *handed;
  // Handed counts without the per-tuple counts this node reads: the
  // caller's ReadsTupleCounts disagrees with the node.
  assert(handed == nullptr);
  own = CountNode(q, db, reads, options);
  return own;
}

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
  into.count_passes += from.count_passes;
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
         a.sharded_decompose_nodes == b.sharded_decompose_nodes &&
         a.count_passes == b.count_passes;
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

void AppendChildReports(const std::vector<AdpNode>& children,
                        const std::vector<std::int64_t>& targets,
                        const CancelToken& cancel, std::vector<TupleRef>& out) {
  for (std::size_t i = targets.size(); i-- > 0;) {
    if (targets[i] == 0) continue;
    cancel.ThrowIfCancelled();
    std::vector<TupleRef> part = children[i].report(targets[i]);
    out.insert(out.end(), part.begin(), part.end());
  }
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

  // The solve walks one compiled plan: the caller's, or one compiled here.
  DispatchPlan compiled;
  if (options.plan == nullptr) compiled = BuildDispatchPlan(*query, options);
  const DispatchPlan& root =
      options.plan != nullptr ? *options.plan : compiled;
  assert(CanonicalQueryKey(root.query) == CanonicalQueryKey(*query));

  // The solve's one counting pass at the root: |Q(D)| here, and whatever
  // the root node reads, handed to it below.
  const JoinCounts counts = CountNode(
      root.query, *data, ReadsTupleCounts(root, options), options);
  AdpSolution solution;
  solution.output_count = counts.outputs;
  if (k > solution.output_count) {
    solution.feasible = false;
    solution.cost = kInfCost;
    return solution;
  }
  if (k <= 0) {
    solution.removed_outputs = 0;
    return solution;
  }

  if (emit == nullptr &&
      options.decompose_strategy !=
          AdpOptions::DecomposeStrategy::kImprovedDP &&
      root.op == AdpCase::kDecompose) {
    // Fig 29 ablation: the paper's baseline strategies solve a Decompose
    // root for k alone. Bypasses SolveNode, so it opens its own node
    // span.
    obs::Span span(options.trace, obs::kSpanNodeDecompose,
                   options.trace_parent);
    span.Tag("cap", k);
    span.Tag("root_single_k", std::int64_t{1});
    AdpOptions inner = options;
    inner.trace_parent = span.id() != 0 ? span.id() : options.trace_parent;
    AdpSolution res = SolveDecomposeAblationRoot(root, *data, k, inner, counts);
    solution.cost = res.cost;
    solution.exact = res.exact;
    solution.tuples = std::move(res.tuples);
  } else {
    AdpNode node = SolveNode(root, *data, k, options, &counts);
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
