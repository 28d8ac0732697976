#include "solver/profile.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace adp {
namespace {

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

// Appends (budget, removed) to `out` and, when `split` is set, records
// `taken` for the breakpoint that created or raised. Returns false once
// `out` has reached cap.
bool AppendWithSplit(CostProfile& out, std::vector<StepSplit>* split,
                     std::int64_t budget, std::int64_t removed,
                     std::int64_t cap, StepSplit taken) {
  const std::int64_t before = out.kmax();
  const bool more = out.Append(budget, removed, cap);
  if (split != nullptr && out.kmax() > before) {
    if (split->size() < out.steps().size()) {
      split->push_back(taken);
    } else {
      split->back() = taken;
    }
  }
  return more;
}

// The budget sweep behind both combines: each pair of breakpoints costing
// at most `limit` is a candidate (summed budget, removed(ra, rb)); the most
// removed per budget is kept, and a running max over budgets gives the
// staircase, cut at cap. Budgets count deleted tuples, so the per-budget
// arrays are O(|D|).
template <typename Removed>
CostProfile SweepPairs(const CostProfile& a, const CostProfile& b,
                       std::int64_t cap, std::int64_t limit, Removed removed,
                       std::vector<StepSplit>* split) {
  const std::vector<ProfileStep>& sa = a.steps();
  const std::vector<ProfileStep>& sb = b.steps();
  limit = std::min(limit, sa.back().budget + sb.back().budget);
  // best[c]: most outputs a pair costing exactly c removes (-1: no pair);
  // arg[c]: the first such pair's removed counts.
  std::vector<std::int64_t> best(static_cast<std::size_t>(limit) + 1, -1);
  std::vector<StepSplit> arg(best.size());
  for (std::size_t i = 0; i < sa.size() && sa[i].budget <= limit; ++i) {
    for (std::size_t k = 0; k < sb.size(); ++k) {
      const std::int64_t c = sa[i].budget + sb[k].budget;
      if (c > limit) break;
      const std::int64_t r = removed(sa[i].removed, sb[k].removed);
      if (r > best[c]) {
        best[c] = r;
        arg[c] = {sa[i].removed, sb[k].removed};
      }
    }
  }
  CostProfile out;
  if (split != nullptr) split->assign(1, StepSplit{0, 0});
  for (std::int64_t c = 0; c <= limit; ++c) {
    if (best[c] > out.kmax() &&
        !AppendWithSplit(out, split, c, best[c], cap, arg[c])) {
      break;
    }
  }
  return out;
}

// ra*(mb-rb) + rb*ma, i.e. ra*mb + rb*ma - ra*rb, saturated.
std::int64_t ProductRemoved(std::int64_t ra, std::int64_t ma,
                            std::int64_t rb, std::int64_t mb) {
  return SatAdd(SatMul(ra, mb - rb), SatMul(rb, ma));
}

// Algorithm 5 as printed (the Figure 29 "pairwise" strategy): for every
// target j, enumerate every (k1, k2) over dense copies of both operands and
// keep the cheapest feasible pair.
CostProfile NaiveProduct(const CostProfile& a, std::int64_t ma,
                         const CostProfile& b, std::int64_t mb,
                         std::int64_t cap, std::vector<StepSplit>* split) {
  const std::vector<std::int64_t> da = a.Dense();
  const std::vector<std::int64_t> db = b.Dense();
  CostProfile out;
  if (split != nullptr) split->assign(1, StepSplit{0, 0});
  for (std::int64_t j = 1; j <= cap; ++j) {
    std::int64_t best = kInfCost;
    StepSplit taken{0, 0};
    const std::int64_t k2_hi = std::min(b.kmax(), std::min(mb, j));
    const std::int64_t k1_hi = std::min(a.kmax(), std::min(ma, j));
    for (std::int64_t k2 = 0; k2 <= k2_hi; ++k2) {
      for (std::int64_t k1 = 0; k1 <= k1_hi; ++k1) {
        if (ProductRemoved(k1, ma, k2, mb) < j) continue;
        const std::int64_t c = da[k1] + db[k2];
        if (c < best) {
          best = c;
          taken = {k1, k2};
        }
      }
    }
    if (best >= kInfCost) break;  // unreachable targets end the staircase
    if (!AppendWithSplit(out, split, best, j, cap, taken)) break;
  }
  return out;
}

}  // namespace

CostProfile::CostProfile(const std::vector<std::int64_t>& cost) : steps_(1) {
  assert(!cost.empty() && cost[0] == 0);
  for (std::size_t j = 1; j < cost.size() && cost[j] < kInfCost; ++j) {
    assert(cost[j] >= cost[j - 1]);
    Append(cost[j], static_cast<std::int64_t>(j));
  }
}

std::size_t CostProfile::StepOf(std::int64_t j) const {
  assert(j >= 0 && j <= kmax());
  const auto it = std::lower_bound(
      steps_.begin(), steps_.end(), j,
      [](const ProfileStep& s, std::int64_t target) {
        return s.removed < target;
      });
  return static_cast<std::size_t>(it - steps_.begin());
}

std::int64_t CostProfile::MaxRemovedWithin(std::int64_t budget) const {
  if (budget < 0) return -1;
  // The last breakpoint with budget <= `budget`; steps_[0].budget == 0.
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), budget,
      [](std::int64_t b, const ProfileStep& s) { return b < s.budget; });
  return std::prev(it)->removed;
}

bool CostProfile::HasConcaveGains() const {
  // A budget with no breakpoint gains nothing, so gains can only be
  // nonincreasing if the breakpoints sit at budgets 0, 1, 2, ... and the
  // per-breakpoint gains shrink.
  std::int64_t prev_gain = kMaxOutputs;
  for (std::size_t s = 1; s < steps_.size(); ++s) {
    const std::int64_t gain = steps_[s].removed - steps_[s - 1].removed;
    if (steps_[s].budget != static_cast<std::int64_t>(s) || gain > prev_gain) {
      return false;
    }
    prev_gain = gain;
  }
  return true;
}

bool CostProfile::IsConvex() const {
  // Within a breakpoint of width > 1 the cost increment drops to 0 after a
  // positive one, so every breakpoint must add exactly one output and the
  // budget increments must not shrink.
  std::int64_t prev_inc = 0;
  for (std::size_t s = 1; s < steps_.size(); ++s) {
    const std::int64_t inc = steps_[s].budget - steps_[s - 1].budget;
    if (steps_[s].removed - steps_[s - 1].removed != 1 || inc < prev_inc) {
      return false;
    }
    prev_inc = inc;
  }
  return true;
}

void CostProfile::TruncateTo(std::int64_t cap) {
  if (cap >= kmax()) return;
  steps_.resize(StepOf(cap) + 1);
  steps_.back().removed = cap;
}

bool CostProfile::Append(std::int64_t budget, std::int64_t removed,
                         std::int64_t cap) {
  ProfileStep& last = steps_.back();
  assert(budget >= last.budget);
  if (last.removed >= cap) return false;
  if (removed > last.removed) {
    removed = std::min(removed, cap);
    if (budget == last.budget) {
      last.removed = removed;
    } else {
      steps_.push_back(ProfileStep{budget, removed});
    }
  }
  return kmax() < cap;
}

std::vector<std::int64_t> CostProfile::Dense() const {
  std::vector<std::int64_t> cost(static_cast<std::size_t>(kmax()) + 1);
  std::size_t s = 0;
  for (std::int64_t j = 0; j <= kmax(); ++j) {
    while (steps_[s].removed < j) ++s;
    cost[static_cast<std::size_t>(j)] = steps_[s].budget;
  }
  return cost;
}

CostProfile CombineDisjoint(const CostProfile& a, const CostProfile& b,
                            std::int64_t cap, std::vector<StepSplit>* split) {
  cap = std::min(cap, SatAdd(a.kmax(), b.kmax()));
  // Either operand alone reaching cap bounds the useful budget.
  const std::int64_t limit = std::min(a.At(cap), b.At(cap));
  return SweepPairs(
      a, b, cap, limit,
      [](std::int64_t ra, std::int64_t rb) { return SatAdd(ra, rb); },
      split);
}

CostProfile CombineProduct(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t cap, bool naive_inner,
                           std::vector<StepSplit>* split) {
  assert(a.kmax() <= ma && b.kmax() <= mb);
  cap = std::min(cap, SatMul(ma, mb));
  if (cap <= 0) {
    if (split != nullptr) split->assign(1, StepSplit{0, 0});
    return CostProfile();
  }
  if (naive_inner) return NaiveProduct(a, ma, b, mb, cap, split);
  // Removing ceil(cap/mb) outputs of a alone (or ceil(cap/ma) of b) removes
  // cap products, which bounds the useful budget.
  const std::int64_t limit =
      std::min(a.At(CeilDiv(cap, mb)), b.At(CeilDiv(cap, ma)));
  return SweepPairs(
      a, b, cap, limit,
      [ma, mb](std::int64_t ra, std::int64_t rb) {
        return ProductRemoved(ra, ma, rb, mb);
      },
      split);
}

std::vector<std::int64_t> ProfileFold::Targets(std::size_t level,
                                               std::int64_t j) const {
  std::vector<std::int64_t> targets(level + 1, 0);
  for (std::size_t i = level; i >= 1; --i) {
    const StepSplit& s = splits[i][levels[i].StepOf(j)];
    targets[i] = s.second;
    j = s.first;
  }
  targets[0] = j;
  return targets;
}

}  // namespace adp
