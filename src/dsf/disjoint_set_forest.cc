#include "dsf/disjoint_set_forest.h"

#include <algorithm>
#include <cassert>

namespace mpc::dsf {

DisjointSetForest::DisjointSetForest(size_t n)
    : parent_(n),
      rank_(n, 0),
      size_(n, 1),
      max_component_size_(n == 0 ? 0 : 1),
      num_components_(n) {
  for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
}

Result<DisjointSetForest> DisjointSetForest::FromState(DsfState state) {
  const size_t n = state.parent.size();
  if (state.rank.size() != n || state.size.size() != n) {
    return Status::InvalidArgument(
        "DSF state arrays disagree on the universe size");
  }
  for (uint32_t p : state.parent) {
    if (p >= n) {
      return Status::InvalidArgument("DSF state parent out of range");
    }
  }
  DisjointSetForest forest(0);
  forest.parent_ = std::move(state.parent);
  forest.rank_ = std::move(state.rank);
  forest.size_ = std::move(state.size);
  forest.max_component_size_ = state.max_component_size;
  forest.num_components_ = state.num_components;
  return forest;
}

void DisjointSetForest::Grow(size_t n) {
  if (n <= parent_.size()) return;
  const size_t old = parent_.size();
  parent_.resize(n);
  rank_.resize(n, 0);
  size_.resize(n, 1);
  for (size_t i = old; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  num_components_ += n - old;
  max_component_size_ = std::max<size_t>(max_component_size_, 1);
}

uint32_t DisjointSetForest::Find(uint32_t x) {
  assert(x < parent_.size());
  uint32_t root = x;
  while (parent_[root] != root) root = parent_[root];
  // Path compression: point every node on the path at the root.
  while (parent_[x] != root) {
    uint32_t next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

uint32_t DisjointSetForest::FindNoCompress(uint32_t x) const {
  assert(x < parent_.size());
  while (parent_[x] != x) x = parent_[x];
  return x;
}

bool DisjointSetForest::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return false;
  // Union by rank; ties grow the rank of the surviving root.
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  max_component_size_ = std::max<size_t>(max_component_size_, size_[ra]);
  --num_components_;
  return true;
}

void DisjointSetForest::AddEdges(std::span<const rdf::Triple> edges) {
  for (const rdf::Triple& t : edges) {
    Union(t.subject, t.object);
  }
}

std::vector<uint32_t> DisjointSetForest::ComponentLabels() {
  constexpr uint32_t kUnlabelled = UINT32_MAX;
  std::vector<uint32_t> labels(parent_.size());
  std::vector<uint32_t> label_of_root(parent_.size(), kUnlabelled);
  uint32_t next_label = 0;
  for (size_t v = 0; v < parent_.size(); ++v) {
    const uint32_t root = Find(static_cast<uint32_t>(v));
    if (label_of_root[root] == kUnlabelled) label_of_root[root] = next_label++;
    labels[v] = label_of_root[root];
  }
  return labels;
}

namespace {

/// Union-find over the few keys (vertices, or roots of a base forest) one
/// property's edges touch, for the two touched-keys-only computations
/// below. A key finds its local id through a dense slot array indexed by
/// the key itself: one array per thread, grown to the largest key seen and
/// reset through the touched-key list when the forest dies, so an
/// evaluation costs O(|edges| α) with no hashing and, once warm, no
/// allocation. At most one LocalForest may live per thread at a time.
class LocalForest {
 public:
  LocalForest() : scratch_(ThreadScratch()) {}

  ~LocalForest() {
    for (uint32_t key : scratch_.keys) scratch_.slot[key] = kNoSlot;
    scratch_.keys.clear();
    scratch_.parent.clear();
    scratch_.size.clear();
  }

  LocalForest(const LocalForest&) = delete;
  LocalForest& operator=(const LocalForest&) = delete;

  /// Returns the local id for `key`, creating a singleton of weight
  /// `initial_size` on first sight.
  uint32_t LocalId(uint32_t key, uint32_t initial_size) {
    if (key >= scratch_.slot.size()) {
      scratch_.slot.resize(std::max<size_t>(key + 1,
                                            2 * scratch_.slot.size()),
                           kNoSlot);
    }
    uint32_t& slot = scratch_.slot[key];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(scratch_.parent.size());
      scratch_.keys.push_back(key);
      scratch_.parent.push_back(slot);
      scratch_.size.push_back(initial_size);
      max_size_ = std::max<size_t>(max_size_, initial_size);
    }
    return slot;
  }

  uint32_t Find(uint32_t x) {
    std::vector<uint32_t>& parent = scratch_.parent;
    uint32_t root = x;
    while (parent[root] != root) root = parent[root];
    while (parent[x] != root) {
      uint32_t next = parent[x];
      parent[x] = root;
      x = next;
    }
    return root;
  }

  void Union(uint32_t a, uint32_t b) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) return;
    std::vector<uint32_t>& size = scratch_.size;
    // Union by size (weights differ, so size beats rank here).
    if (size[ra] < size[rb]) std::swap(ra, rb);
    scratch_.parent[rb] = ra;
    size[ra] += size[rb];
    max_size_ = std::max<size_t>(max_size_, size[ra]);
  }

  size_t max_size() const { return max_size_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Scratch {
    std::vector<uint32_t> slot;  // key -> local id, kNoSlot when untouched
    std::vector<uint32_t> keys;  // touched keys, for the reset
    std::vector<uint32_t> parent;
    std::vector<uint32_t> size;
  };

  static Scratch& ThreadScratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  Scratch& scratch_;
  size_t max_size_ = 0;
};

}  // namespace

size_t MaxWccOfEdges(std::span<const rdf::Triple> edges) {
  LocalForest forest;
  for (const rdf::Triple& t : edges) {
    uint32_t a = forest.LocalId(t.subject, 1);
    uint32_t b = forest.LocalId(t.object, 1);
    forest.Union(a, b);
  }
  return forest.max_size();
}

size_t TrialMergeMaxComponent(const DisjointSetForest& base,
                              std::span<const rdf::Triple> edges) {
  return TrialMergeMaxComponent(base, {edges});
}

size_t TrialMergeMaxComponent(
    const DisjointSetForest& base,
    std::initializer_list<std::span<const rdf::Triple>> edge_runs) {
  // Roots of `base` act as supervertices weighted by their component
  // sizes; the runs' edges union them locally.
  LocalForest forest;
  for (std::span<const rdf::Triple> edges : edge_runs) {
    for (const rdf::Triple& t : edges) {
      uint32_t root_s = base.FindNoCompress(t.subject);
      uint32_t root_o = base.FindNoCompress(t.object);
      if (root_s == root_o) continue;  // already one component in base
      uint32_t a = forest.LocalId(
          root_s, static_cast<uint32_t>(base.SizeOfRoot(root_s)));
      uint32_t b = forest.LocalId(
          root_o, static_cast<uint32_t>(base.SizeOfRoot(root_o)));
      forest.Union(a, b);
    }
  }
  return std::max(base.max_component_size(), forest.max_size());
}

}  // namespace mpc::dsf
