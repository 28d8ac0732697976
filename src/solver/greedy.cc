#include "solver/greedy.h"

#include <limits>
#include <memory>
#include <utility>

#include "dichotomy/relations.h"
#include "relational/provenance.h"

namespace adp {
namespace {

// Tournament tree over per-position keys whose root names the position of
// the largest key, the leftmost one on ties: the tuple Algorithm 6's scan
// (candidate relations in order, tuples by id, strict improvement) picks.
// A lazy max-heap would not do: under a projected head a profit can rise
// after an unrelated deletion, so stale entries are not all upper bounds.
class LeftmostMaxTree {
 public:
  explicit LeftmostMaxTree(std::vector<std::int64_t> keys)
      : key_(std::move(keys)) {
    std::size_t cap = 1;
    while (cap < key_.size()) cap <<= 1;
    cap_ = cap;
    key_.resize(cap, -1);  // padding sits right of every real key
    node_.resize(2 * cap);
    for (std::size_t i = 0; i < cap; ++i) {
      node_[cap + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = cap - 1; j >= 1; --j) Pull(j);
  }

  std::size_t Top() const { return node_[1]; }
  std::int64_t TopKey() const { return key_[node_[1]]; }

  void Set(std::size_t i, std::int64_t key) {
    if (key_[i] == key) return;
    key_[i] = key;
    for (std::size_t j = (cap_ + i) >> 1; j >= 1; j >>= 1) Pull(j);
  }

 private:
  void Pull(std::size_t j) {
    const std::uint32_t a = node_[2 * j];
    const std::uint32_t b = node_[2 * j + 1];
    node_[j] = key_[b] > key_[a] ? b : a;
  }

  std::size_t cap_ = 1;
  std::vector<std::int64_t> key_;    // per position
  std::vector<std::uint32_t> node_;  // node -> position of its leftmost max
};

}  // namespace

GreedyTrace RunGreedyForCQ(const ConjunctiveQuery& q, const Database& db,
                           std::int64_t target,
                           const DeletionRestrictions* restrictions,
                           const JoinCounts* counts) {
  GreedyTrace trace;
  if (counts != nullptr && counts->outputs == 0) return trace;
  std::shared_ptr<const ComponentJoin> kept =
      counts != nullptr ? counts->WholeJoin() : nullptr;
  ProvenanceIndex index = kept != nullptr
                              ? ProvenanceIndex(std::move(kept), q.head(), db)
                              : ProvenanceIndex(q.body(), q.head(), db);
  trace.total_outputs = index.total_outputs();
  // Lemma 13 lets the unrestricted greedy consider endogenous relations
  // only; with protected tuples the exogenous substitute of a protected
  // endogenous tuple may be the only deletable option, so consider all.
  std::vector<int> candidates = EndogenousRelations(q);
  if (restrictions && !restrictions->Empty()) {
    candidates.clear();
    for (int i = 0; i < q.num_relations(); ++i) candidates.push_back(i);
  }

  // Tree position of tuple t of candidate relation r: first[r] + t, so
  // positions follow the scan order. A key is the tuple's profit, or -1
  // when the tuple is protected or irrelevant (not deletable usefully).
  constexpr std::size_t kNotCandidate = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> first(q.num_relations(), kNotCandidate);
  std::size_t positions = 0;
  for (int rel : candidates) {
    first[rel] = positions;
    positions += index.NumTuples(rel);
  }
  auto key = [&](int rel, TupleId t) -> std::int64_t {
    if (restrictions && restrictions->IsProtectedLocal(db.rel(rel), t)) {
      return -1;
    }
    return index.IsRelevant(rel, t) ? index.Profit(rel, t) : -1;
  };
  std::vector<std::int64_t> keys;
  keys.reserve(positions);
  for (int rel : candidates) {
    for (TupleId t = 0; t < index.NumTuples(rel); ++t) {
      keys.push_back(key(rel, t));
    }
  }
  LeftmostMaxTree tree(std::move(keys));

  std::vector<std::pair<int, TupleId>> changed;
  std::int64_t removed = 0;
  while (removed < target && index.alive_outputs() > 0) {
    if (tree.TopKey() < 0) break;  // nothing deletable remains
    const std::size_t pos = tree.Top();
    int best_rel = candidates.front();
    for (int rel : candidates) {
      if (first[rel] <= pos) best_rel = rel;
    }
    const TupleId best_tuple = static_cast<TupleId>(pos - first[best_rel]);
    removed += index.Delete(best_rel, best_tuple, &changed);
    for (const auto& [rel, t] : changed) {
      if (first[rel] != kNotCandidate) tree.Set(first[rel] + t, key(rel, t));
    }
    changed.clear();
    const RelationInstance& inst = db.rel(best_rel);
    trace.picks.push_back(
        TupleRef{inst.root_relation(), inst.OriginOf(best_tuple)});
    trace.removed_after.push_back(removed);
  }
  return trace;
}

AdpNode GreedyNode(const ConjunctiveQuery& q, const Database& db,
                   std::int64_t cap, const AdpOptions& options,
                   const JoinCounts& counts) {
  if (options.stats) ++options.stats->greedy_leaves;
  GreedyTrace trace = RunGreedyForCQ(q, db, std::min(cap, std::int64_t{1} << 62),
                                     options.restrictions, &counts);

  // Profile from the trajectory: a breakpoint at every pick that raised
  // the removed count, so At(j) is the first pick count reaching j.
  AdpNode node;
  node.exact = false;
  node.outputs = counts.outputs;
  for (std::size_t p = 0; p < trace.removed_after.size(); ++p) {
    if (!node.profile.Append(static_cast<std::int64_t>(p) + 1,
                             trace.removed_after[p], cap)) {
      break;
    }
  }
  if (!options.counting_only) {
    auto shared = std::make_shared<GreedyTrace>(std::move(trace));
    node.report = [shared](std::int64_t j) {
      std::vector<TupleRef> out;
      for (std::size_t i = 0; i < shared->picks.size(); ++i) {
        out.push_back(shared->picks[i]);
        if (shared->removed_after[i] >= j) break;
      }
      if (j <= 0) out.clear();
      return out;
    };
  }
  return node;
}

}  // namespace adp
