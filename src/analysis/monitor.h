// DeletionMonitor: incremental what-if analysis over a stream of input
// deletions. Wraps the ProvenanceIndex behind a stable public API so a
// downstream user can interactively delete tuples and watch |Q(D)| drop —
// the "counting query answers under deletion propagation" primitive that
// gives the paper its title.

#ifndef ADP_ANALYSIS_MONITOR_H_
#define ADP_ANALYSIS_MONITOR_H_

#include <cstdint>
#include <memory>

#include "query/query.h"
#include "relational/database.h"
#include "relational/provenance.h"
#include "solver/solution.h"

namespace adp {

class DeletionMonitor {
 public:
  /// Materializes the provenance of Q(D). `q` must be selection-free (push
  /// selections down first with ApplySelections).
  DeletionMonitor(const ConjunctiveQuery& q, const Database& db);

  /// |Q(D)| before any deletion.
  std::int64_t initial_count() const { return initial_; }

  /// |Q(D - deleted)| right now.
  std::int64_t current_count() const { return index_->alive_outputs(); }

  /// Outputs removed so far.
  std::int64_t removed() const { return initial_ - current_count(); }

  /// Deletes one input tuple (local coordinates of the database the monitor
  /// was built on); returns how many outputs died. Idempotent.
  std::int64_t Delete(int relation, TupleId row);

  /// Exact marginal impact of deleting the tuple *now*, without deleting.
  /// An O(1) read: concurrent Impact/IsRelevant calls are safe while no
  /// Delete runs.
  std::int64_t Impact(int relation, TupleId row) const;

  /// True if the tuple still contributes to at least one alive output.
  bool IsRelevant(int relation, TupleId row) const;

 private:
  std::unique_ptr<ProvenanceIndex> index_;
  std::int64_t initial_ = 0;
};

}  // namespace adp

#endif  // ADP_ANALYSIS_MONITOR_H_
