// ComputeADP (Algorithm 2): the unified poly-time algorithm. Exact on
// poly-time-solvable queries, a heuristic on NP-hard ones.
//
// Dispatch order follows the paper:
//   1. Boolean       — resilience via minimum vertex cut (§7.1);
//   2. Singleton     — direct sorting algorithm (Algorithm 3, §7.2);
//   3. Universe      — partition on universal attributes + DP (Algorithm 4);
//   4. Decompose     — connected components + cross-product DP (Algorithm 5);
//   5. Greedy leaf   — GreedyForCQ (Alg 6) or DrasticGreedy (Alg 7).
// Selections are pushed down first (Lemma 12). The case of every node is
// decided once, when the selection-free query's DispatchPlan is compiled
// (solver/plan.h); the recursion walks that tree.
//
// Internally every recursion node produces a CostProfile plus a lazy
// reporter; see solver/profile.h for the combination semantics.

#ifndef ADP_SOLVER_COMPUTE_ADP_H_
#define ADP_SOLVER_COMPUTE_ADP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "solver/profile.h"
#include "solver/restrictions.h"
#include "solver/solution.h"
#include "util/cancel.h"

namespace adp {

struct DispatchPlan;  // solver/plan.h

namespace obs {
class Span;       // obs/trace.h; forward-declared to keep the solver light
class TraceSink;
}  // namespace obs

/// The per-node decision of Algorithm 2. Data-independent: it is a function
/// of the (selection-free) query structure and the option knobs alone, which
/// is what lets a dispatch plan be compiled once and cached (solver/plan.h).
enum class AdpCase { kBoolean, kSingleton, kUniverse, kDecompose, kHeuristic };

/// Recursion statistics, filled when AdpOptions::stats is set. Useful for
/// understanding which of Algorithm 2's cases a query exercises.
/// When adding a field, extend MergeAdpStats (compute_adp.cc) too, or
/// sharded solves will silently drop its per-shard contributions.
struct AdpStats {
  int boolean_nodes = 0;
  int boolean_fallbacks = 0;  // triad-free but not linearizable -> greedy
  int singleton_nodes = 0;
  int universe_nodes = 0;
  int decompose_nodes = 0;
  int greedy_leaves = 0;
  int drastic_leaves = 0;
  std::int64_t universe_groups = 0;
  /// Universe nodes whose partition groups were solved in parallel via
  /// AdpOptions::parallelism.
  int sharded_universe_nodes = 0;
  /// Decompose nodes whose connected-component sub-solves were solved in
  /// parallel via AdpOptions::parallelism.
  int sharded_decompose_nodes = 0;
  /// Passes over the data: calls into the relational counting API
  /// (relational/join.h), one per leaf SolveNode dispatches (a rejected
  /// root leaf's included) plus ComputeAdp's one for k <= 0; not `verify`.
  /// Universe and Decompose nodes count nothing. A leaf that reads a join
  /// (a Greedy leaf, the Boolean greedy fallback) has its pass materialize
  /// and keep it, so its greedy joins nothing more; only a Boolean fallback
  /// over a disconnected body, which no one join covers, keeps none (its
  /// pass counts as if no join was asked for) and joins for itself,
  /// untallied.
  std::int64_t count_passes = 0;
};

/// Field-wise accumulation, used to fold per-shard statistics back into the
/// parent solve's AdpStats. Every field is an additive tally, so the merge
/// is commutative and associative: the folded total is independent of the
/// order the shards finished in (asserted by stats_test's order-independence
/// test — keep new fields additive, or give them an order-independent merge).
void MergeAdpStats(AdpStats& into, const AdpStats& from);

/// Field-wise equality.
bool operator==(const AdpStats& a, const AdpStats& b);
inline bool operator!=(const AdpStats& a, const AdpStats& b) {
  return !(a == b);
}

/// True iff `a` and `b` agree on every field except the sharding-engagement
/// markers (sharded_universe_nodes / sharded_decompose_nodes) — the one
/// intended difference between a serial and a sharded run of the same solve.
bool StatsAgreeModuloSharding(const AdpStats& a, const AdpStats& b);

/// Intra-request parallelism hook. When AdpOptions::parallelism is set,
/// recursion nodes whose subproblems are independent — the Universe case's
/// partition groups (Algorithm 4) and the Decompose case's connected
/// components (Algorithm 5) — dispatch them through `run_all`, typically
/// backed by a worker pool, instead of solving sequentially. Results are
/// bitwise-identical to the sequential path: shard outputs land at fixed
/// indices, are combined in the same order the sequential fold would use
/// (partition order / ascending-|Q_i(D)| fold order), and each shard gets a
/// private AdpStats that is merged afterwards.
struct Parallelism {
  /// Executes every task exactly once and returns when all have finished.
  /// Must be safe to invoke from inside one of its own tasks (nested
  /// Universe/Decompose nodes shard recursively); ThreadPool::RunAll — whose
  /// calling thread helps drain the batch — qualifies.
  std::function<void(std::vector<std::function<void()>>)> run_all;

  /// Shard only Universe nodes with at least this many partition groups;
  /// smaller nodes stay sequential (dispatch overhead would dominate).
  /// 0 disables Universe sharding entirely.
  std::size_t min_groups = 4;

  /// Shard only Decompose nodes with at least this many connected
  /// components besides the first, which is solved before the fan-out
  /// (solver/decompose.h). 0 disables Decompose sharding entirely.
  std::size_t min_components = 4;
};

/// Tuning knobs. Defaults reproduce the paper's recommended configuration;
/// the alternate strategies exist for the Figure 28/29 ablations.
struct AdpOptions {
  /// Heuristic used on NP-hard leaves.
  enum class Heuristic { kGreedy, kDrastic };
  Heuristic heuristic = Heuristic::kGreedy;

  /// Skip materializing the witness tuples (the paper's "counting version").
  bool counting_only = false;

  /// Re-evaluate the query after deletion and fill removed_outputs.
  bool verify = false;

  /// Universe: remove all universal attributes as one combined attribute
  /// (default, §7.3) or one at a time (Fig 28 strategy 1).
  enum class UniverseStrategy { kAllAtOnce, kOneByOne };
  UniverseStrategy universe_strategy = UniverseStrategy::kAllAtOnce;

  /// Universe: allow the greedy marginal-merge fast path when every group
  /// profile is convex. Disable to force the plain DP (Fig 28 strategy 2).
  bool universe_convex_merge = true;

  /// Decompose: improved DP (§7.3), the paper's original O(k^2)-inner-loop
  /// DP, or full enumeration of (k1..ks) vectors (Fig 29 strategies 3/2/1).
  enum class DecomposeStrategy { kImprovedDP, kPairwiseNaive,
                                 kFullEnumeration };
  DecomposeStrategy decompose_strategy = DecomposeStrategy::kImprovedDP;

  /// Enable the Singleton base case (§7.2 optimization). When disabled the
  /// recursion falls through to Universe/Decompose as in the un-optimized
  /// variant.
  bool use_singleton = true;

  /// §9 extension: tuples that may not be deleted (root coordinates).
  /// Boolean subproblems stay exact; other leaves become heuristic — see
  /// solver/restrictions.h for the support matrix. Not owned.
  const DeletionRestrictions* restrictions = nullptr;

  /// If set, receives recursion statistics. Not owned.
  AdpStats* stats = nullptr;

  /// Compiled dispatch plan (solver/plan.h) for the selection-free form of
  /// the query ComputeAdp is given (equal canonical keys; debug builds
  /// assert it); the solve walks it instead of compiling its own. Must have
  /// been built with options whose classification-relevant knobs
  /// (use_singleton, universe_strategy, presence of restrictions) match this
  /// request's. Not owned; must outlive the solve. Read-only, so one plan
  /// may serve many concurrent solves.
  const DispatchPlan* plan = nullptr;

  /// Intra-request parallelism (see Parallelism above). Not owned; must
  /// outlive the solve. Engine-managed on requests that go through
  /// AdpEngine (like `plan` and `stats`).
  const Parallelism* parallelism = nullptr;

  /// Cooperative cancellation/deadline token, polled at recursion node
  /// boundaries — including sharded sub-solves and the long inner loops of
  /// the Decompose case. A fired token aborts the solve by throwing
  /// CancelledError (util/cancel.h). Not owned; must outlive the solve.
  /// Engine-managed on requests that go through AdpEngine.
  const CancelToken* cancel = nullptr;

  /// Span sink for per-node tracing (obs/trace.h). Null — the default —
  /// disables tracing at the cost of one pointer compare per recursion
  /// node, checked at the same boundaries that poll `cancel`. Not owned;
  /// must outlive the solve. Engine-managed on requests that go through
  /// AdpEngine (AdpRequest::collect_trace).
  obs::TraceSink* trace = nullptr;

  /// Span id the next recursion node should parent under (0 = trace root).
  /// Maintained by the recursion itself; callers only seed the root value.
  std::uint32_t trace_parent = 0;
};

/// Polls options.cancel and throws CancelledError iff it has fired. Called
/// at every recursion node boundary; sub-solvers with long internal loops
/// poll it themselves.
inline void ThrowIfCancelled(const AdpOptions& options) {
  if (options.cancel != nullptr) options.cancel->ThrowIfCancelled();
}

/// By-value copy of the solve's cancel token for reporter lambdas to
/// capture: reporters can run long after the profile solve returned (the
/// engine's streaming path drives them incrementally), outliving the
/// AdpOptions that configured them — tokens are cheap shared handles, so a
/// copy stays valid and lets a cancelled stream stop mid-enumeration.
inline CancelToken ReporterToken(const AdpOptions& options) {
  return options.cancel != nullptr ? *options.cancel : CancelToken();
}

/// Incremental consumer of one solve's output; AdpEngine::StreamAdp slices
/// it into ResultStream items. See ComputeAdp.
struct AdpEmitter {
  /// Called for k = 1..K in ascending order with the cost of removing >= k
  /// outputs (kInfCost when unreachable).
  std::function<void(std::int64_t k, std::int64_t cost)> profile;
  /// Called with a witness set removing >= k outputs, in enumeration order
  /// (not normalized).
  std::function<void(std::int64_t k, const std::vector<TupleRef>& tuples)>
      witnesses;
  /// Also hand over the witness set of every reachable intermediate target
  /// 1..K-1, right after its profile call.
  bool intermediate_witnesses = false;
};

/// Solves ADP(Q, D, k). `q` may carry selections; `db` must be the root
/// database (instances indexed as in `q`). The solve walks options.plan, or
/// a plan it compiles for the selection-free query. With `emit` set, the root
/// node's profile is reported through it for every target 1..k and the
/// final witness set is handed over in enumeration order instead of being
/// returned (the result's `tuples` stay empty). Every solve reads the root
/// node's profile, except that without `emit` the Fig 29 ablation
/// strategies solve a Decompose root for k alone (SolveDecomposeAblationRoot
/// in solver/decompose.h). |Q(D)| (`output_count`) is the root's `outputs`.
/// A k above it answers infeasible; at a leaf root that costs one counting
/// pass and no solve, and with `emit` nothing is emitted. A k <= 0 makes one
/// counting pass, for |Q(D)|, and solves nothing.
AdpSolution ComputeAdp(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t k, const AdpOptions& options = {},
                       const AdpEmitter* emit = nullptr);

/// Algorithm 2's dispatch decision for a selection-free query: what
/// BuildDispatchPlan (solver/plan.h) records for each node.
AdpCase ClassifyAdpCase(const ConjunctiveQuery& q, const AdpOptions& options);

// --- Internal recursion interface (exposed for sub-solvers and tests) -----

/// Lazy witness producer: report(j) returns root-coordinate tuples whose
/// removal removes >= j outputs of the node's subproblem, at profile cost.
using Reporter = std::function<std::vector<TupleRef>(std::int64_t)>;

/// One node of the ComputeADP recursion.
struct AdpNode {
  /// Profile with kmax <= min(cap, outputs): the most the node's deletions
  /// reach, cut at cap.
  CostProfile profile;
  /// True iff every sub-solver on this subtree was exact.
  bool exact = true;
  /// Null iff counting_only.
  Reporter report;
  /// |Q'(D')| of the node's subproblem, saturated at kMaxOutputs: a leaf's
  /// own count, the sum over a Universe node's groups (Eq. 1), the product
  /// over a Decompose node's components (Lemma 3). 0 on the trivial node
  /// SolveNode returns for cap <= 0.
  std::int64_t outputs = 0;
};

/// Solves the plan node `node` over `db` (instances indexed as in
/// node.query) up to `cap`, inside its own span when tracing. A leaf
/// (Boolean, Singleton, heuristic) counts its own body here, once, and hands
/// the counts to its solver; a Universe or Decompose node counts nothing and
/// composes its children's outputs. With `require_cap` (ComputeAdp's root
/// only), a leaf counting fewer than `cap` outputs returns right after its
/// pass: only `outputs` is set, and nothing is solved.
AdpNode SolveNode(const DispatchPlan& node, const Database& db,
                  std::int64_t cap, const AdpOptions& options,
                  bool require_cap = false);

/// Solves child `i` of a SolveChildren fan-out under `options`: the node's
/// own, or the shard's copy when the fan-out sharded. `shard` is then the
/// child's shard span, which the node may tag; otherwise it is inert. A
/// child solve starts with SolveNode, whose boundary polls the cancel token.
using ChildSolve = std::function<AdpNode(
    std::size_t i, const AdpOptions& options, obs::Span& shard)>;

/// The one fan-out of a node's independent sub-solves (Universe's partition
/// groups, Decompose's components): children 0..count-1 by `solve`,
/// returned in index order. With options.parallelism set and at least
/// max(min_shard, 2) children (min_shard 0 never shards), they run through
/// Parallelism::run_all, each in a `shard_span` span under the node's own
/// span, tagged `shard` = i, with a private AdpStats (the shared one would
/// race) merged into options.stats afterwards; the first failure is
/// rethrown once all have finished. Otherwise they run in index order. The
/// children are the same either way. Sets *sharded to whether it sharded.
std::vector<AdpNode> SolveChildren(std::size_t count, std::size_t min_shard,
                                   const char* shard_span,
                                   const AdpOptions& options,
                                   const ChildSolve& solve, bool* sharded);

/// Appends children[i].report(targets[i]) to `out` for every nonzero
/// target, last child first, polling `cancel` before each so a cancelled
/// stream stops mid-enumeration (reporters run after the solve; see
/// ReporterToken).
void AppendChildReports(const std::vector<AdpNode>& children,
                        const std::vector<std::int64_t>& targets,
                        const CancelToken& cancel, std::vector<TupleRef>& out);

}  // namespace adp

#endif  // ADP_SOLVER_COMPUTE_ADP_H_
