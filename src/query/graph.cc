#include "query/graph.h"

namespace adp {

std::vector<std::vector<int>> ConnectedComponents(const ConjunctiveQuery& q) {
  return BodyComponents(q.body(), AttrSet::FirstN(kMaxAttrs));
}

bool IsConnected(const ConjunctiveQuery& q) {
  return ConnectedComponents(q).size() <= 1;
}

bool ConnectedVia(const ConjunctiveQuery& q, int from, int to,
                  AttrSet allowed) {
  if (from == to) return true;
  const int p = q.num_relations();
  std::vector<char> visited(p, 0);
  visited[from] = 1;
  std::vector<int> stack = {from};
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    const AttrSet au = q.relation(u).attr_set().Intersect(allowed);
    for (int v = 0; v < p; ++v) {
      if (visited[v]) continue;
      if (au.Intersects(q.relation(v).attr_set())) {
        if (v == to) return true;
        visited[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return false;
}

std::vector<std::vector<int>> ComponentsVia(const ConjunctiveQuery& q,
                                            AttrSet allowed) {
  return BodyComponents(q.body(), allowed);
}

}  // namespace adp
