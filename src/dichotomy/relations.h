// Relation classifications used by both dichotomies:
//   * endogenous / exogenous (Appendix A, after [11]) — an optimal ADP
//     solution only ever deletes tuples of endogenous relations (Lemma 13);
//   * dominated / non-dominated (Definitions 6 and 7) — the finer-grained
//     notion needed for the structural characterization of general CQs.

#ifndef ADP_DICHOTOMY_RELATIONS_H_
#define ADP_DICHOTOMY_RELATIONS_H_

#include <vector>

#include "query/query.h"

namespace adp {

/// True iff relation `j` is exogenous: some other relation's attribute set
/// is a strict subset of attr(Rj). When several relations share the same
/// attribute set, the lowest-index one counts as endogenous and the rest as
/// exogenous.
bool IsExogenous(const ConjunctiveQuery& q, int j);

/// flags[i] == 1 iff relation `i` is exogenous (IsExogenous).
std::vector<char> ExogenousFlags(const ConjunctiveQuery& q);

/// Body indices of endogenous relations.
std::vector<int> EndogenousRelations(const ConjunctiveQuery& q);

/// True if relation `j` is dominated by relation `i` per Definition 7:
///   (1) attr(Ri) ⊆ attr(Rj);
///   (2) for any Rk with attr(Ri) − attr(Rk) ≠ ∅:
///         attr(Rj) ∩ attr(Rk) ⊆ attr(Ri) ∩ head(Q);
///   (3) attr(Ri) ⊆ head(Q) or head(Q) ⊆ attr(Ri).
/// For full CQs this coincides with Definition 6.
/// Relations with identical attribute sets are handled by the caller's tie
/// rule; this predicate requires attr(Ri) != attr(Rj).
bool DominatedBy(const ConjunctiveQuery& q, int j, int i);

/// flags[j] == 1 iff relation `j` is dominated by some other relation
/// (Definition 7), with the paper's tie rule for identical attribute sets:
/// the lowest-index relation of each identical-set group is the candidate
/// non-dominated one, the rest are dominated.
std::vector<char> DominatedFlags(const ConjunctiveQuery& q);

/// Body indices of non-dominated relations.
std::vector<int> NonDominatedRelations(const ConjunctiveQuery& q);

}  // namespace adp

#endif  // ADP_DICHOTOMY_RELATIONS_H_
