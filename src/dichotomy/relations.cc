#include "dichotomy/relations.h"

namespace adp {

bool IsExogenous(const ConjunctiveQuery& q, int j) {
  const AttrSet aj = q.relation(j).attr_set();
  for (int i = 0; i < q.num_relations(); ++i) {
    if (i == j) continue;
    const AttrSet ai = q.relation(i).attr_set();
    if (ai.StrictSubsetOf(aj)) return true;
    if (ai == aj && i < j) return true;  // tie rule: first one endogenous
  }
  return false;
}

std::vector<char> ExogenousFlags(const ConjunctiveQuery& q) {
  std::vector<char> exo(q.num_relations(), 0);
  for (int j = 0; j < q.num_relations(); ++j) exo[j] = IsExogenous(q, j);
  return exo;
}

std::vector<int> EndogenousRelations(const ConjunctiveQuery& q) {
  std::vector<char> exo = ExogenousFlags(q);
  std::vector<int> out;
  for (int i = 0; i < q.num_relations(); ++i) {
    if (!exo[i]) out.push_back(i);
  }
  return out;
}

bool DominatedBy(const ConjunctiveQuery& q, int j, int i) {
  const AttrSet ai = q.relation(i).attr_set();
  const AttrSet aj = q.relation(j).attr_set();
  const AttrSet head = q.head();
  if (ai == aj) return false;  // ties handled by DominatedFlags
  // (1)
  if (!ai.SubsetOf(aj)) return false;
  // (3)
  if (!ai.SubsetOf(head) && !head.SubsetOf(ai)) return false;
  // (2)
  const AttrSet bound = ai.Intersect(head);
  for (int k = 0; k < q.num_relations(); ++k) {
    const AttrSet ak = q.relation(k).attr_set();
    if (ai.Minus(ak).Empty()) continue;  // attr(Ri) − attr(Rk) = ∅
    if (!aj.Intersect(ak).SubsetOf(bound)) return false;
  }
  return true;
}

std::vector<char> DominatedFlags(const ConjunctiveQuery& q) {
  const int p = q.num_relations();
  std::vector<char> dominated(p, 0);
  for (int j = 0; j < p; ++j) {
    const AttrSet aj = q.relation(j).attr_set();
    for (int i = 0; i < p && !dominated[j]; ++i) {
      if (i == j) continue;
      if (q.relation(i).attr_set() == aj) {
        if (i < j) dominated[j] = 1;  // tie rule: keep the first
      } else if (DominatedBy(q, j, i)) {
        dominated[j] = 1;
      }
    }
  }
  return dominated;
}

std::vector<int> NonDominatedRelations(const ConjunctiveQuery& q) {
  std::vector<char> dom = DominatedFlags(q);
  std::vector<int> out;
  for (int i = 0; i < q.num_relations(); ++i) {
    if (!dom[i]) out.push_back(i);
  }
  return out;
}

}  // namespace adp
