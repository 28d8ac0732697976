#include "solver/plan.h"

#include <utility>

#include "dichotomy/linearize.h"
#include "query/transform.h"

namespace adp {

const char* AdpCaseName(AdpCase c) {
  switch (c) {
    case AdpCase::kBoolean: return "boolean";
    case AdpCase::kSingleton: return "singleton";
    case AdpCase::kUniverse: return "universe";
    case AdpCase::kDecompose: return "decompose";
    case AdpCase::kHeuristic: return "heuristic";
  }
  return "?";
}

DispatchPlan BuildDispatchPlan(const ConjunctiveQuery& q,
                               const AdpOptions& options) {
  DispatchPlan node;
  node.op = ClassifyAdpCase(q, options);
  switch (node.op) {
    case AdpCase::kBoolean:
      node.linear_order = FindLinearOrder(q);
      break;
    case AdpCase::kUniverse:
      node.removed = q.UniversalAttrs();
      if (options.universe_strategy ==
          AdpOptions::UniverseStrategy::kOneByOne) {
        // Figure 28 strategy 1: peel a single universal attribute; the
        // residual still has the rest, so the recursion stacks partitions.
        node.removed = AttrSet::Of(*node.removed.begin());
      }
      node.children.push_back(
          BuildDispatchPlan(RemoveAttributes(q, node.removed), options));
      break;
    case AdpCase::kDecompose:
      for (Subquery& sub : DecomposeQuery(q)) {
        node.components.push_back(std::move(sub.parent_relation));
        node.children.push_back(BuildDispatchPlan(sub.query, options));
      }
      break;
    case AdpCase::kSingleton:
    case AdpCase::kHeuristic:
      break;  // leaves of the query-structure recursion
  }
  node.query = q;
  return node;
}

}  // namespace adp
