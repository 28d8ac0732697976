#include "solver/decompose.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/plan.h"

namespace adp {
namespace {

// The Fig 29 baselines run k-indexed loops over dense profiles; longer
// ones mean a target k proportional to a cross-product-sized output, which
// those loops cannot finish. The default strategy has no such limit.
constexpr std::int64_t kProfileLimit = std::int64_t{1} << 25;

struct Components {
  std::vector<Database> dbs;
  std::vector<JoinCounts> counts;    // handed to each component's child
  std::vector<std::int64_t> m;       // |Q_i(D)| per component
  std::vector<std::size_t> order;    // fold order: ascending m, largest last
  std::int64_t total = 1;            // saturated product of m
};

// Component `c`'s share of a body's counts, as its child reads them: the
// component's relations renumbered in `rels` order, which is the order of
// the child's body, with the per-tuple counts of the read ones and the
// component's kept join. SubDatabase copies whole relations and shares
// their dictionaries, so tuple ids and codes match; the join's column
// sources stay on this node's instances, which outlive the child's solve.
JoinCounts ShareOf(const JoinCounts& counts, std::size_t c) {
  const JoinCounts::Component& comp = counts.components[c];
  JoinCounts share;
  share.rows = comp.rows;
  share.outputs = comp.outputs;
  share.reads.joins = counts.reads.joins;
  share.components.push_back(
      JoinCounts::Component{{}, comp.rows, comp.outputs, comp.join});
  std::vector<int>& rels = share.components[0].rels;
  for (std::size_t j = 0; j < comp.rels.size(); ++j) {
    rels.push_back(static_cast<int>(j));
    if (!counts.reads.Reads(static_cast<std::size_t>(comp.rels[j]))) continue;
    share.reads.Add(j);
    share.per_tuple.resize(comp.rels.size());
    share.per_tuple[j] = counts.per_tuple[comp.rels[j]];
  }
  return share;
}

// Splits the node's database by its plan's components (in the order of
// JoinCounts' components). A node handed no counts makes the one counting
// pass for itself and its children here, with per-tuple counts if a child
// reads them.
Components SplitComponents(const DispatchPlan& plan, const Database& db,
                           const JoinCounts* counts,
                           const AdpOptions& options) {
  assert(plan.op == AdpCase::kDecompose);
  Components parts;
  JoinCounts own;
  if (counts == nullptr) {
    own = CountNode(plan.query, db, ReadsTupleCounts(plan, options), options);
    counts = &own;
  }
  assert(counts->components.size() == plan.components.size());
  for (std::size_t c = 0; c < plan.components.size(); ++c) {
    parts.dbs.push_back(SubDatabase(plan.components[c], db));
    parts.counts.push_back(ShareOf(*counts, c));
    parts.m.push_back(parts.counts.back().outputs);
    parts.total = SatMul(parts.total, parts.m.back());
  }
  parts.order.resize(plan.components.size());
  std::iota(parts.order.begin(), parts.order.end(), 0);
  std::sort(parts.order.begin(), parts.order.end(),
            [&](std::size_t a, std::size_t b) {
              return parts.m[a] < parts.m[b];
            });
  return parts;
}

void CheckProfileLimit(std::int64_t len) {
  if (len > kProfileLimit) {
    throw std::runtime_error(
        "Decompose: requested profile length exceeds the supported limit of "
        "the ablation strategies; the target k is proportional to a "
        "cross-product-sized output count");
  }
}

// State shared with reporters.
struct DecomposeState {
  std::vector<AdpNode> children;  // in fold order
  std::vector<std::int64_t> m;    // in fold order
  // kImprovedDP / kPairwiseNaive: the cross-product fold of the children.
  ProfileFold fold;
  // kFullEnumeration: each child's profile as At(0..kmax).
  std::vector<std::vector<std::int64_t>> dense;
};

// Folds children 0..count-1 into s.fold under cross-product semantics, every
// level cut at `cap`; returns the product of their output counts. The
// pairwise baseline's levels are dense, so they are held to kProfileLimit.
std::int64_t FoldPrefix(DecomposeState& s, std::size_t count,
                        std::int64_t cap, const AdpOptions& options) {
  const bool naive = options.decompose_strategy ==
                     AdpOptions::DecomposeStrategy::kPairwiseNaive;
  ProfileFold& fold = s.fold;
  fold.levels.assign(1, s.children[0].profile);
  fold.levels[0].TruncateTo(cap);
  fold.splits.assign(count, {});
  std::int64_t prefix_m = s.m[0];
  for (std::size_t i = 1; i < count; ++i) {
    ThrowIfCancelled(options);
    if (naive) CheckProfileLimit(std::min(cap, SatMul(prefix_m, s.m[i])));
    fold.levels.push_back(CombineProduct(
        fold.levels[i - 1], prefix_m, s.children[i].profile, s.m[i], cap,
        naive, options.counting_only ? nullptr : &fold.splits[i]));
    prefix_m = SatMul(prefix_m, s.m[i]);
  }
  return prefix_m;
}

// Full-enumeration (Eq. 2) support: finds the cheapest (k1..ks) vector with
// >= j outputs removed; returns its cost and (optionally) the vector.
//
// This is deliberately the *literal* enumeration of Lemma 3's proof — every
// k_i ranges over [0, j] with no pruning, Θ(k^s) combinations — because the
// Figure 29 ablation measures exactly that strategy. Vectors with
// k_i beyond a component's removable outputs carry infinite cost and are
// skipped at the comparison, not in the loop bounds.
std::int64_t EnumerateVectors(const DecomposeState& s, std::int64_t j,
                              std::vector<std::int64_t>* best_vec) {
  const std::size_t n = s.children.size();
  std::vector<std::int64_t> vec(n, 0);
  std::int64_t best = kInfCost;
  std::int64_t total = 1;
  for (std::int64_t mi : s.m) total = SatMul(total, mi);
  auto at = [&s](std::size_t i, std::int64_t ki) {
    return ki < static_cast<std::int64_t>(s.dense[i].size())
               ? s.dense[i][static_cast<std::size_t>(ki)]
               : kInfCost;
  };

  // Depth-first enumeration over per-component removal counts; `surviving`
  // is the partial product of (m_i - k_i), so removed = total - surviving.
  std::function<void(std::size_t, std::int64_t, std::int64_t)> rec =
      [&](std::size_t i, std::int64_t cost, std::int64_t surviving) {
        if (i == n) {
          if (cost < best && total - surviving >= j) {
            best = cost;
            if (best_vec) *best_vec = vec;
          }
          return;
        }
        for (std::int64_t ki = 0; ki <= j; ++ki) {
          vec[i] = ki;
          rec(i + 1, cost + at(i, ki),
              SatMul(surviving, std::max<std::int64_t>(0, s.m[i] - ki)));
        }
      };
  rec(0, 0, 1);
  return best;
}

void DensifyChildren(DecomposeState& s) {
  for (const AdpNode& c : s.children) s.dense.push_back(c.profile.Dense());
}

std::shared_ptr<DecomposeState> BuildChildren(const DispatchPlan& plan,
                                              const Components& parts,
                                              std::int64_t cap,
                                              const AdpOptions& options) {
  auto state = std::make_shared<DecomposeState>();
  const std::size_t n = parts.order.size();
  const Parallelism* par = options.parallelism;
  if (par != nullptr && par->run_all != nullptr && par->min_components > 0 &&
      n >= std::max<std::size_t>(par->min_components, 2)) {
    // Sharded path: the components are independent subproblems (Lemma 3),
    // so their per-k profiles can be solved concurrently. Children land at
    // fixed fold-order indices and are combined by the caller's
    // cross-product DP in that same order, keeping the result
    // bitwise-identical to the sequential path. Each shard writes a private
    // AdpStats (the shared pointer would race) merged afterwards.
    if (options.stats) ++options.stats->sharded_decompose_nodes;
    state->children.resize(n);
    state->m.resize(n);
    std::vector<AdpStats> shard_stats(options.stats ? n : 0);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tasks.push_back([&, i] {
        const std::size_t idx = parts.order[i];
        try {
          AdpOptions shard = options;
          if (options.stats) shard.stats = &shard_stats[i];
          // One span per shard, parented under this Decompose node's span;
          // the explicit parent link keeps the trace a tree even though
          // shards run on arbitrary pool threads.
          obs::Span span(options.trace, obs::kSpanShardDecompose,
                         options.trace_parent);
          span.Tag("shard", static_cast<std::int64_t>(i));
          span.Tag("component", static_cast<std::int64_t>(idx));
          shard.trace_parent = span.id();
          // Sharded sub-solves poll the token too: a cancel that lands
          // mid-fan-out stops the remaining components at their boundary.
          ThrowIfCancelled(shard);
          const std::int64_t child_cap = std::min(parts.m[idx], cap);
          state->children[i] =
              SolveNode(plan.children[idx], parts.dbs[idx], child_cap, shard,
                        &parts.counts[idx]);
          state->m[i] = parts.m[idx];
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    par->run_all(std::move(tasks));
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (options.stats) {
      for (const AdpStats& s : shard_stats) MergeAdpStats(*options.stats, s);
    }
    return state;
  }
  for (std::size_t idx : parts.order) {
    ThrowIfCancelled(options);
    const std::int64_t child_cap = std::min(parts.m[idx], cap);
    state->children.push_back(SolveNode(plan.children[idx], parts.dbs[idx],
                                        child_cap, options,
                                        &parts.counts[idx]));
    state->m.push_back(parts.m[idx]);
  }
  return state;
}

}  // namespace

AdpNode DecomposeNode(const DispatchPlan& plan, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const JoinCounts* counts) {
  if (options.stats) ++options.stats->decompose_nodes;
  const Components parts = SplitComponents(plan, db, counts, options);
  if (options.trace != nullptr) {
    // options.trace_parent is this node's own span (opened by
    // SolveNode before dispatching here).
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(plan.children.size()));
  }
  const std::int64_t out_kmax = std::min(cap, parts.total);
  const bool full_enumeration =
      options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration;
  if (full_enumeration) CheckProfileLimit(out_kmax);
  auto state = BuildChildren(plan, parts, out_kmax, options);

  AdpNode node;
  for (const AdpNode& c : state->children) node.exact &= c.exact;

  if (full_enumeration) {
    // Build the profile by probing every target (ablation-only path).
    DensifyChildren(*state);
    for (std::int64_t j = 1; j <= out_kmax; ++j) {
      ThrowIfCancelled(options);
      const std::int64_t cost = EnumerateVectors(*state, j, nullptr);
      if (cost >= kInfCost || !node.profile.Append(cost, j, out_kmax)) break;
    }
    if (!options.counting_only) {
      auto s = state;
      node.report = [s, cancel = ReporterToken(options)](std::int64_t j) {
        std::vector<std::int64_t> vec(s->children.size(), 0);
        EnumerateVectors(*s, j, &vec);
        std::vector<TupleRef> out;
        AppendChildReports(s->children, vec, cancel, out);
        return out;
      };
    }
    return node;
  }

  FoldPrefix(*state, state->children.size(), out_kmax, options);
  node.profile = state->fold.levels.back();
  if (!options.counting_only) {
    auto s = state;
    node.report = [s, cancel = ReporterToken(options)](std::int64_t j) {
      std::vector<TupleRef> out;
      AppendChildReports(s->children,
                         s->fold.Targets(s->children.size() - 1, j), cancel,
                         out);
      return out;
    };
  }
  return node;
}

AdpSolution SolveDecomposeAblationRoot(const DispatchPlan& plan,
                                       const Database& db, std::int64_t k,
                                       const AdpOptions& options,
                                       const JoinCounts& counts) {
  if (options.stats) ++options.stats->decompose_nodes;
  const Components parts = SplitComponents(plan, db, &counts, options);
  if (options.trace != nullptr) {
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(plan.children.size()));
  }
  AdpSolution result;
  result.cost = kInfCost;
  auto state = BuildChildren(plan, parts, k, options);
  for (const AdpNode& c : state->children) result.exact &= c.exact;
  const std::size_t n = state->children.size();
  const CancelToken cancel = ReporterToken(options);

  if (options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration) {
    DensifyChildren(*state);
    std::vector<std::int64_t> vec(n, 0);
    result.cost = EnumerateVectors(*state, k,
                                   options.counting_only ? nullptr : &vec);
    if (!options.counting_only) {
      AppendChildReports(state->children, vec, cancel, result.tuples);
    }
    return result;
  }

  // Fold all but the largest component into a prefix profile, then scan the
  // largest component's removal count k2 once, deriving the minimal prefix
  // target k1 in closed form.
  const std::int64_t prefix_m = FoldPrefix(*state, n - 1, k, options);
  const CostProfile& prefix = state->fold.levels.back();
  const std::vector<std::int64_t> last = state->children[n - 1].profile.Dense();
  const std::int64_t mb = state->m[n - 1];
  ThrowIfCancelled(options);
  std::int64_t best_k1 = 0;
  std::int64_t best_k2 = 0;
  for (std::int64_t k2 = 0; k2 < static_cast<std::int64_t>(last.size());
       ++k2) {
    std::int64_t k1;
    if (k2 >= mb) {
      k1 = 0;
    } else {
      const std::int64_t need = k - SatMul(k2, prefix_m);
      if (need <= 0) {
        k1 = 0;
      } else {
        const std::int64_t den = mb - k2;
        k1 = (need + den - 1) / den;
      }
    }
    if (k1 > prefix.kmax()) continue;
    const std::int64_t c = prefix.At(k1) + last[static_cast<std::size_t>(k2)];
    if (c < result.cost) {
      result.cost = c;
      best_k1 = k1;
      best_k2 = k2;
    }
  }

  if (!options.counting_only && result.cost < kInfCost) {
    std::vector<std::int64_t> targets = state->fold.Targets(n - 2, best_k1);
    targets.push_back(best_k2);
    AppendChildReports(state->children, targets, cancel, result.tuples);
  }
  return result;
}

}  // namespace adp
