#include "solver/fixed_k.h"

#include <algorithm>
#include <map>

#include "relational/join.h"

namespace adp {
namespace {

// Minimum number of masks (with one witness choice) covering `full`.
// Subset DP over the 2^k target space; masks is small (<= k*p distinct).
std::pair<int, std::vector<int>> MinMaskCover(
    const std::vector<std::uint32_t>& masks, std::uint32_t full) {
  const std::uint32_t space = full + 1;
  constexpr int kUnreached = 1 << 20;
  std::vector<int> best(space, kUnreached);
  std::vector<std::pair<std::uint32_t, int>> parent(space,
                                                    {0, -1});  // prev, mask id
  best[0] = 0;
  for (std::uint32_t covered = 0; covered < space; ++covered) {
    if (best[covered] >= kUnreached) continue;
    for (std::size_t i = 0; i < masks.size(); ++i) {
      const std::uint32_t next = (covered | masks[i]) & full;
      if (best[covered] + 1 < best[next]) {
        best[next] = best[covered] + 1;
        parent[next] = {covered, static_cast<int>(i)};
      }
    }
  }
  std::vector<int> picks;
  if (best[full] >= kUnreached) return {kUnreached, picks};
  for (std::uint32_t at = full; at != 0;) {
    picks.push_back(parent[at].second);
    at = parent[at].first;
  }
  return {best[full], picks};
}

}  // namespace

std::optional<AdpSolution> SolveFixedKFullCq(const ConjunctiveQuery& q,
                                             const Database& db,
                                             std::int64_t k, int max_k,
                                             std::int64_t max_subsets) {
  if (!q.IsFull() || q.HasSelections()) return std::nullopt;
  if (k > max_k || k < 0 || k >= 31) return std::nullopt;

  JoinResult join = FullJoin(q.body(), db);
  const std::int64_t rows = static_cast<std::int64_t>(join.NumRows());
  if (k > rows) return std::nullopt;

  AdpSolution solution;
  solution.output_count = rows;
  solution.exact = true;
  if (k == 0) {
    solution.removed_outputs = 0;
    return solution;
  }

  // Guard the (rows choose k) enumeration.
  double subsets = 1.0;
  for (std::int64_t i = 0; i < k; ++i) {
    subsets *= static_cast<double>(rows - i) / static_cast<double>(i + 1);
  }
  if (subsets > static_cast<double>(max_subsets)) return std::nullopt;

  const std::size_t p = q.body().size();
  std::int64_t best_cost = -1;
  std::vector<std::pair<int, TupleId>> best_tuples;

  std::vector<int> combo(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) combo[i] = static_cast<int>(i);
  while (true) {
    // Candidate tuples: supporters of the chosen rows, with coverage masks.
    std::map<std::pair<int, TupleId>, std::uint32_t> coverage;
    for (std::int64_t j = 0; j < k; ++j) {
      for (std::size_t rel = 0; rel < p; ++rel) {
        const TupleId t = join.SupportOf(combo[j], rel);
        coverage[{static_cast<int>(rel), t}] |= std::uint32_t{1} << j;
      }
    }
    std::vector<std::uint32_t> masks;
    std::vector<std::pair<int, TupleId>> owners;
    for (const auto& [key, mask] : coverage) {
      masks.push_back(mask);
      owners.push_back(key);
    }
    const std::uint32_t full = (std::uint32_t{1} << k) - 1;
    const auto [cost, picks] = MinMaskCover(masks, full);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_tuples.clear();
      for (int i : picks) best_tuples.push_back(owners[i]);
    }

    int i = static_cast<int>(k) - 1;
    while (i >= 0 && combo[i] == rows - (k - i)) --i;
    if (i < 0) break;
    ++combo[i];
    for (std::int64_t jj = i + 1; jj < k; ++jj) combo[jj] = combo[jj - 1] + 1;
  }

  solution.cost = best_cost;
  for (const auto& [rel, t] : best_tuples) {
    const RelationInstance& inst = db.rel(rel);
    solution.tuples.push_back(TupleRef{inst.root_relation(),
                                       inst.OriginOf(t)});
  }
  NormalizeTupleRefs(solution.tuples);
  return solution;
}

}  // namespace adp
