#include "approx/adp_psc.h"

#include "relational/join.h"
#include "solver/profile.h"

namespace adp {

AdpPscReduction ReduceFullCqToPsc(const ConjunctiveQuery& q,
                                  const Database& db) {
  AdpPscReduction red;
  JoinResult join = FullJoin(q.body(), db);
  const std::size_t p = q.body().size();
  red.instance.num_elements = static_cast<std::int64_t>(join.NumRows());

  // One set per input tuple that participates in at least one row.
  std::vector<std::vector<int>> set_of(p);
  for (std::size_t r = 0; r < p; ++r) {
    set_of[r].assign(db.rel(r).size(), -1);
  }
  for (std::size_t row = 0; row < join.NumRows(); ++row) {
    for (std::size_t r = 0; r < p; ++r) {
      const TupleId t = join.SupportOf(row, r);
      if (set_of[r][t] < 0) {
        set_of[r][t] = static_cast<int>(red.instance.sets.size());
        red.instance.sets.emplace_back();
        const RelationInstance& inst = db.rel(r);
        red.set_tuple.push_back(
            TupleRef{inst.root_relation(), inst.OriginOf(t)});
      }
      red.instance.sets[set_of[r][t]].push_back(
          static_cast<std::int64_t>(row));
    }
  }
  return red;
}

AdpSolution SolveFullCqViaPsc(const ConjunctiveQuery& q, const Database& db,
                              std::int64_t k, PscAlgorithm algorithm) {
  AdpPscReduction red = ReduceFullCqToPsc(q, db);
  AdpSolution solution;
  solution.output_count = red.instance.num_elements;
  solution.exact = false;
  if (k > solution.output_count) {
    solution.feasible = false;
    solution.cost = kInfCost;
    return solution;
  }
  const PscResult res = algorithm == PscAlgorithm::kGreedy
                            ? GreedyPartialSetCover(red.instance, k)
                            : PrimalDualPartialSetCover(red.instance, k);
  for (int s : res.chosen) solution.tuples.push_back(red.set_tuple[s]);
  NormalizeTupleRefs(solution.tuples);
  solution.cost = static_cast<std::int64_t>(solution.tuples.size());
  solution.removed_outputs = res.covered;
  return solution;
}

}  // namespace adp
