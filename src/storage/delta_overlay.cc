#include "storage/delta_overlay.h"

#include <algorithm>
#include <array>
#include <functional>
#include <span>

namespace mpc::storage {

namespace {

using rdf::kInvalidProperty;
using rdf::kInvalidVertex;
using rdf::Triple;

bool Matches(const Triple& t, rdf::VertexId s, rdf::PropertyId p,
             rdf::VertexId o) {
  if (s != kInvalidVertex && t.subject != s) return false;
  if (p != kInvalidProperty && t.property != p) return false;
  if (o != kInvalidVertex && t.object != o) return false;
  return true;
}

/// The TripleSource contract's emission order for a given bound/unbound
/// combination, as a comparable key. Bound components tie among matches,
/// so comparing the full contract tuple sorts exactly by the free ones.
std::array<uint32_t, 3> OrderKey(const Triple& t, bool bs, bool bp, bool bo) {
  if (bp && bs) return {t.object, 0, 0};
  if (bp && bo) return {t.subject, 0, 0};
  if (bp) return {t.subject, t.object, 0};
  if (bs && bo) return {t.property, 0, 0};
  if (bs) return {t.property, t.object, 0};
  if (bo) return {t.subject, t.property, 0};
  return {t.property, t.subject, t.object};
}

bool PosLess(const Triple& a, const Triple& b) {
  if (a.property != b.property) return a.property < b.property;
  if (a.object != b.object) return a.object < b.object;
  return a.subject < b.subject;
}

/// The elements of `sorted` (ordered by `less`) within [lo, hi].
template <typename Less>
std::span<const Triple> SortedRange(const std::vector<Triple>& sorted,
                                    const Triple& lo, const Triple& hi,
                                    Less less) {
  auto first = std::lower_bound(sorted.begin(), sorted.end(), lo, less);
  auto last = std::upper_bound(first, sorted.end(), hi, less);
  return std::span<const Triple>(first, last);
}

}  // namespace

DeltaOverlaySource::DeltaOverlaySource(
    std::shared_ptr<const store::TripleSource> base,
    std::vector<rdf::Triple> added, std::vector<rdf::Triple> deleted)
    : base_(std::move(base)) {
  auto in_base = [&](const Triple& t) {
    return base_->EstimateCardinality(t.subject, t.property, t.object) == 1;
  };
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  std::sort(deleted.begin(), deleted.end());
  deleted.erase(std::unique(deleted.begin(), deleted.end()), deleted.end());

  for (const Triple& t : deleted) {
    if (in_base(t)) minus_vec_.push_back(t);
  }
  minus_.insert(minus_vec_.begin(), minus_vec_.end());
  for (const Triple& t : added) {
    if (std::binary_search(deleted.begin(), deleted.end(), t)) continue;
    if (in_base(t)) continue;  // duplicate of a base triple: a no-op add
    plus_.push_back(t);
  }
  plus_pos_ = plus_;
  std::sort(plus_pos_.begin(), plus_pos_.end(), PosLess);
  num_triples_ = base_->num_triples() + plus_.size() - minus_vec_.size();
}

std::span<const Triple> DeltaOverlaySource::PropertyAdds(
    rdf::VertexId s, rdf::PropertyId p, rdf::VertexId o) const {
  const std::less<Triple> pso;
  if (s != kInvalidVertex && o != kInvalidVertex) {
    return SortedRange(plus_, Triple(s, p, o), Triple(s, p, o), pso);
  }
  if (s != kInvalidVertex) {
    return SortedRange(plus_, Triple(s, p, 0), Triple(s, p, kInvalidVertex),
                       pso);
  }
  if (o != kInvalidVertex) {
    return SortedRange(plus_pos_, Triple(0, p, o),
                       Triple(kInvalidVertex, p, o), PosLess);
  }
  return SortedRange(plus_, Triple(0, p, 0),
                     Triple(kInvalidVertex, p, kInvalidVertex), pso);
}

size_t DeltaOverlaySource::PropertyCount(rdf::PropertyId p) const {
  const Triple lo(0, p, 0);
  const Triple hi(kInvalidVertex, p, kInvalidVertex);
  return base_->PropertyCount(p) +
         SortedRange(plus_, lo, hi, std::less<Triple>()).size() -
         SortedRange(minus_vec_, lo, hi, std::less<Triple>()).size();
}

bool DeltaOverlaySource::Scan(rdf::VertexId s, rdf::PropertyId p,
                              rdf::VertexId o, store::ScanFn fn) const {
  const bool bs = s != kInvalidVertex;
  const bool bp = p != kInvalidProperty;
  const bool bo = o != kInvalidVertex;

  // Matching adds in this combination's emission order: with p bound, a
  // range of plus_ or plus_pos_ already in that order; otherwise
  // filtered and sorted (every LUBM pattern binds its property).
  std::vector<Triple> filtered;
  std::span<const Triple> adds;
  if (bp) {
    adds = PropertyAdds(s, p, o);
  } else {
    for (const Triple& t : plus_) {
      if (Matches(t, s, p, o)) filtered.push_back(t);
    }
    std::sort(filtered.begin(), filtered.end(),
              [&](const Triple& a, const Triple& b) {
                return OrderKey(a, bs, bp, bo) < OrderKey(b, bs, bp, bo);
              });
    adds = filtered;
  }

  // Ordered two-way merge: before each base triple, flush every add that
  // precedes it; tombstoned base triples are skipped. plus_ ∩ base = ∅,
  // so the equal case cannot occur and nothing double-emits.
  size_t ai = 0;
  bool stopped = false;
  const bool base_done =
      base_->Scan(s, p, o, [&](const Triple& t) {
        const auto t_key = OrderKey(t, bs, bp, bo);
        while (ai < adds.size() &&
               OrderKey(adds[ai], bs, bp, bo) < t_key) {
          if (!fn(adds[ai++])) {
            stopped = true;
            return false;
          }
        }
        if (minus_.count(t) != 0) return true;
        if (!fn(t)) {
          stopped = true;
          return false;
        }
        return true;
      });
  if (!base_done || stopped) return false;
  for (; ai < adds.size(); ++ai) {
    if (!fn(adds[ai])) return false;
  }
  return true;
}

size_t DeltaOverlaySource::EstimateCardinality(rdf::VertexId s,
                                               rdf::PropertyId p,
                                               rdf::VertexId o) const {
  size_t est = base_->EstimateCardinality(s, p, o);
  if (p != kInvalidProperty) {
    est += PropertyAdds(s, p, o).size();
  } else {
    for (const Triple& t : plus_) est += Matches(t, s, p, o);
  }
  for (const Triple& t : minus_vec_) est -= Matches(t, s, p, o);
  return est;
}

size_t DeltaOverlaySource::MemoryUsage() const {
  return base_->MemoryUsage() +
         (plus_.capacity() + plus_pos_.capacity() + minus_vec_.capacity()) *
             sizeof(Triple) +
         minus_.size() * (sizeof(Triple) + 2 * sizeof(void*));
}

}  // namespace mpc::storage
