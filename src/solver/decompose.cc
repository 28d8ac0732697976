#include "solver/decompose.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/transform.h"
#include "solver/plan.h"

namespace adp {
namespace {

// The Fig 29 baselines run k-indexed loops over dense profiles; longer
// ones mean a target k proportional to a cross-product-sized output, which
// those loops cannot finish. The default strategy has no such limit.
constexpr std::int64_t kProfileLimit = std::int64_t{1} << 25;

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
  std::vector<std::int64_t> m;    // |Q_i(D)| per child, in fold order
  std::int64_t outputs = 1;       // saturated product of m
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
  const std::int64_t total = s.outputs;
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

// Solves each component's child over the component's relations, then
// orders the children for the fold by their outputs: ascending |Q_i(D)|,
// the largest last. The component with the fewest tuples (the lowest index
// on ties) is solved first, at `cap`; with m outputs of its own, every other
// one is solved at ceil(cap / m), or at 0 when m = 0 and the product is
// empty. That is exact for every target j <= cap (Lemma 3): when no output
// count is 0, removing r outputs of component i alone removes r times the
// others' product, at least r * m, so a way to reach j that removes more
// than ceil(cap / m) of component i costs no less than removing
// ceil(cap / m) of it alone, which already reaches j. Only those n - 1
// sub-solves fan out when the node shards.
std::shared_ptr<DecomposeState> BuildChildren(const DispatchPlan& plan,
                                              const Database& db,
                                              std::int64_t cap,
                                              const AdpOptions& options) {
  assert(plan.op == AdpCase::kDecompose);
  if (options.stats) ++options.stats->decompose_nodes;
  const std::size_t n = plan.children.size();
  if (options.trace != nullptr) {
    // options.trace_parent is this node's own span (opened by SolveNode, or
    // by ComputeAdp for an ablation root).
    options.trace->Annotate(options.trace_parent, "components",
                            std::to_string(n));
  }
  std::size_t first = 0;
  std::size_t fewest = 0;
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t tuples = 0;
    for (int r : plan.components[c]) tuples += db.rel(r).size();
    if (c == 0 || tuples < fewest) {
      first = c;
      fewest = tuples;
    }
  }
  AdpNode first_child = SolveNode(plan.children[first],
                                  SubDatabase(plan.components[first], db),
                                  cap, options);
  const std::int64_t m = first_child.outputs;
  const std::int64_t rest_cap = m == 0 ? 0 : cap / m + (cap % m != 0 ? 1 : 0);
  // The other components are independent subproblems (Lemma 3).
  bool sharded = false;
  std::vector<AdpNode> rest = SolveChildren(
      n - 1,
      options.parallelism != nullptr ? options.parallelism->min_components
                                     : 0,
      obs::kSpanShardDecompose, options,
      [&](std::size_t i, const AdpOptions& o, obs::Span& shard) {
        const std::size_t c = i < first ? i : i + 1;
        shard.Tag("component", static_cast<std::int64_t>(c));
        return SolveNode(plan.children[c],
                         SubDatabase(plan.components[c], db), rest_cap, o);
      },
      &sharded);
  if (sharded && options.stats) ++options.stats->sharded_decompose_nodes;
  // Component c's child.
  auto child = [&](std::size_t c) -> AdpNode& {
    return c == first ? first_child : rest[c < first ? c : c - 1];
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return child(a).outputs < child(b).outputs;
  });
  auto state = std::make_shared<DecomposeState>();
  for (std::size_t c : order) {
    state->m.push_back(child(c).outputs);
    state->outputs = SatMul(state->outputs, child(c).outputs);
    state->children.push_back(std::move(child(c)));
  }
  return state;
}

}  // namespace

AdpNode DecomposeNode(const DispatchPlan& plan, const Database& db,
                      std::int64_t cap, const AdpOptions& options) {
  auto state = BuildChildren(plan, db, cap, options);
  const std::int64_t out_kmax = std::min(cap, state->outputs);
  const bool full_enumeration =
      options.decompose_strategy ==
      AdpOptions::DecomposeStrategy::kFullEnumeration;
  if (full_enumeration) CheckProfileLimit(out_kmax);

  AdpNode node;
  node.outputs = state->outputs;
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
                                       const AdpOptions& options) {
  auto state = BuildChildren(plan, db, k, options);
  AdpSolution result;
  result.cost = kInfCost;
  result.output_count = state->outputs;
  if (k > result.output_count) return result;
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
