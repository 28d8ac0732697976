#include "solver/boolean.h"

#include "dichotomy/linearize.h"
#include "dichotomy/relations.h"
#include "flow/max_flow.h"
#include "relational/group_index.h"

namespace adp {

std::optional<BooleanResult> SolveBooleanExact(
    const ConjunctiveQuery& q, const Database& db,
    const DeletionRestrictions* restrictions,
    const std::vector<int>* linear_order) {
  std::optional<std::vector<int>> order_opt;
  if (linear_order == nullptr) {
    order_opt = FindLinearOrder(q);
    if (!order_opt) return std::nullopt;
  }
  const std::vector<int>& order = linear_order ? *linear_order : *order_opt;
  const int p = q.num_relations();
  const std::vector<char> exo = ExogenousFlags(q);

  // Network: s -> [in(t) -> out(t)] per tuple, consecutive atoms linked
  // through per-join-key hub nodes, last atom -> t. In a linear arrangement
  // any s-t chain of pairwise-joining tuples is globally consistent (each
  // attribute spans a contiguous block), so s-t connectivity == Q(D) true,
  // and a minimum vertex cut == resilience.
  MaxFlow flow(2);
  const int source = 0;
  const int sink = 1;

  // Node ids for tuple splits, per linear position.
  std::vector<std::vector<int>> in_node(p), out_node(p);
  std::vector<std::vector<int>> tuple_edge(p);  // in->out edge ids
  for (int pos = 0; pos < p; ++pos) {
    const int rel = order[pos];
    const RelationInstance& inst = db.rel(rel);
    const std::int64_t rel_cap = exo[rel] ? kInfCapacity : 1;
    in_node[pos].resize(inst.size());
    out_node[pos].resize(inst.size());
    tuple_edge[pos].resize(inst.size());
    for (std::size_t t = 0; t < inst.size(); ++t) {
      in_node[pos][t] = flow.AddNode();
      out_node[pos][t] = flow.AddNode();
      std::int64_t cap = rel_cap;
      if (restrictions && restrictions->IsProtectedLocal(inst, t)) {
        cap = kInfCapacity;  // §9 extension: undeletable tuple
      }
      tuple_edge[pos][t] = flow.AddEdge(in_node[pos][t], out_node[pos][t], cap);
    }
  }

  // Source / sink attachment.
  for (std::size_t t = 0; t < db.rel(order[0]).size(); ++t) {
    flow.AddEdge(source, in_node[0][t], kInfCapacity);
  }
  for (std::size_t t = 0; t < db.rel(order[p - 1]).size(); ++t) {
    flow.AddEdge(out_node[p - 1][t], sink, kInfCapacity);
  }

  // Consecutive atoms: one hub node per key of their shared attributes
  // (avoids quadratic edge blowup). The hubs are the groups of the left
  // atom's key (HashGroupIndex); a right row links to the hub of its key,
  // translated into the left atom's dictionaries (KeyProbe), or to none,
  // since a key only the right atom holds lies on no s-t path. An empty
  // atom lies on none either, and has no columns to key.
  for (int pos = 0; pos + 1 < p; ++pos) {
    const RelationSchema& ls = q.relation(order[pos]);
    const RelationSchema& rs = q.relation(order[pos + 1]);
    const RelationInstance& linst = db.rel(order[pos]);
    const RelationInstance& rinst = db.rel(order[pos + 1]);
    if (linst.empty() || rinst.empty()) continue;
    std::vector<int> lcols, rcols;
    std::vector<const ColumnDict*> from, to;
    for (AttrId a : ls.attr_set().Intersect(rs.attr_set())) {
      lcols.push_back(ls.ColumnOf(a));
      rcols.push_back(rs.ColumnOf(a));
      from.push_back(&rinst.dict(rcols.back()));
      to.push_back(&linst.dict(lcols.back()));
    }
    const HashGroupIndex hubs(linst, lcols);
    const int first_hub = flow.num_nodes();
    for (std::size_t g = 0; g < hubs.num_groups(); ++g) flow.AddNode();
    for (std::size_t t = 0; t < linst.size(); ++t) {
      flow.AddEdge(out_node[pos][t],
                   first_hub + static_cast<int>(hubs.group_of(t)),
                   kInfCapacity);
    }
    KeyProbe(&hubs, std::move(from), std::move(to), rinst.size())
        .ForEachRow(
            rinst.size(),
            [&](std::size_t t, std::size_t j) {
              return rinst.CodeAt(t, rcols[j]);
            },
            [&](std::size_t t, std::uint32_t g) {
              if (g == kNoGroup) return;
              flow.AddEdge(first_hub + static_cast<int>(g),
                           in_node[pos + 1][t], kInfCapacity);
            });
  }

  BooleanResult result;
  result.resilience = flow.Compute(source, sink);

  // Extract the vertex cut: tuples whose in-node is reachable from s in the
  // residual graph while their out-node is not.
  const std::vector<char> side = flow.SourceSide(source);
  for (int pos = 0; pos < p; ++pos) {
    const int rel = order[pos];
    const RelationInstance& inst = db.rel(rel);
    for (std::size_t t = 0; t < inst.size(); ++t) {
      if (side[in_node[pos][t]] && !side[out_node[pos][t]]) {
        result.cut.push_back(
            TupleRef{inst.root_relation(), inst.OriginOf(t)});
      }
    }
  }
  return result;
}

}  // namespace adp
