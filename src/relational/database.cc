#include "relational/database.h"

#include <numeric>

namespace adp {

Database WithTuplesRemoved(const Database& db,
                           const std::vector<std::vector<char>>& removed) {
  Database out;
  std::vector<TupleId> keep;
  for (std::size_t r = 0; r < db.num_relations(); ++r) {
    const RelationInstance& in = db.rel(r);
    keep.clear();
    keep.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (r < removed.size() && i < removed[r].size() && removed[r][i]) {
        continue;
      }
      keep.push_back(static_cast<TupleId>(i));
    }
    // Gather: shares `in`'s dictionaries and copies only the surviving
    // code rows; origins are preserved.
    std::vector<int> all(in.arity());
    std::iota(all.begin(), all.end(), 0);
    out.Append(RelationInstance::Gather(in, keep, all));
  }
  return out;
}

}  // namespace adp
