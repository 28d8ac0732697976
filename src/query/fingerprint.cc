#include "query/fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace adp {

std::string CanonicalQueryKey(const ConjunctiveQuery& q) {
  // Attribute ids canonicalized by first occurrence over the body, columns
  // in schema order; head attributes missing from the body (possible only in
  // hand-built queries) are numbered as encountered.
  std::vector<int> canon(static_cast<std::size_t>(q.num_attributes()), -1);
  int next = 0;
  auto id = [&](AttrId a) {
    if (canon[a] < 0) canon[a] = next++;
    return canon[a];
  };

  std::string key;
  key.reserve(16 * static_cast<std::size_t>(q.num_relations()) + 8);
  for (int i = 0; i < q.num_relations(); ++i) {
    const RelationSchema& r = q.relation(i);
    key += "R(";
    for (std::size_t c = 0; c < r.attrs.size(); ++c) {
      if (c > 0) key += ',';
      key += std::to_string(id(r.attrs[c]));
    }
    std::vector<std::pair<int, Value>> sels;
    for (const Selection& s : q.selections()[i]) {
      sels.emplace_back(id(s.attr), s.value);
    }
    std::sort(sels.begin(), sels.end());
    for (const auto& [a, v] : sels) {
      key += ';';
      key += std::to_string(a);
      key += '=';
      key += std::to_string(v);
    }
    key += ')';
  }

  key += "->";
  std::vector<int> head;
  for (AttrId a : q.head()) head.push_back(id(a));
  std::sort(head.begin(), head.end());
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(head[i]);
  }
  return key;
}

}  // namespace adp
