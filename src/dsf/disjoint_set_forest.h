#ifndef MPC_DSF_DISJOINT_SET_FOREST_H_
#define MPC_DSF_DISJOINT_SET_FOREST_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/status.h"
#include "rdf/types.h"

namespace mpc::dsf {

/// A forest's complete internal state, exported verbatim for checkpoint
/// serialization (dynamic::CheckpointIo). The parent/rank arrays are
/// history-dependent — two forests over the same partition of the
/// universe can differ in tree shape — so recovery restores them
/// bit-for-bit rather than re-deriving them from edges.
struct DsfState {
  std::vector<uint32_t> parent;
  std::vector<uint8_t> rank;
  std::vector<uint32_t> size;
  size_t max_component_size = 0;
  size_t num_components = 0;

  bool operator==(const DsfState&) const = default;
};

/// Union-find over a fixed vertex universe [0, n) with union by rank,
/// path compression, per-tree sizes and an incrementally maintained
/// maximum component size — exactly the structure Section IV-D uses to
/// track WCC(G[L']) and evaluate Cost(L') (Definition 4.2) as properties
/// are added to the internal set.
class DisjointSetForest {
 public:
  /// Creates n singleton components.
  explicit DisjointSetForest(size_t n);

  /// Reconstructs a forest from an exported state, bit-for-bit. The
  /// state must be internally consistent (same-length arrays, parents in
  /// range); violations are rejected with InvalidArgument.
  static Result<DisjointSetForest> FromState(DsfState state);

  /// Snapshot of the complete internal state (see DsfState).
  DsfState ExportState() const {
    return DsfState{parent_, rank_, size_, max_component_size_,
                    num_components_};
  }

  size_t universe_size() const { return parent_.size(); }

  /// Extends the universe to [0, n), appending singleton components; a
  /// no-op when n <= universe_size(). Lets the incremental maintainer
  /// absorb never-seen vertices online without rebuilding the forest.
  void Grow(size_t n);

  /// Root of x's tree, compressing the path (two-pass).
  uint32_t Find(uint32_t x);

  /// Root of x's tree without mutation; O(tree height) = O(log n) under
  /// union by rank. Used by the non-destructive trial merge.
  uint32_t FindNoCompress(uint32_t x) const;

  /// Merges the components of a and b. Returns true if they were
  /// previously distinct.
  bool Union(uint32_t a, uint32_t b);

  /// Number of vertices in x's component.
  size_t ComponentSize(uint32_t x) { return size_[Find(x)]; }

  /// Size of the component whose root is `root`. `root` must be a root
  /// (e.g. obtained from FindNoCompress); no lookup is performed.
  size_t SizeOfRoot(uint32_t root) const { return size_[root]; }

  /// Size of the largest component — Cost(L') for the property set whose
  /// edges have been unioned in (Definition 4.2).
  size_t max_component_size() const { return max_component_size_; }

  size_t num_components() const { return num_components_; }

  /// Unions the endpoints of every edge; the paper's "for each edge uu'
  /// with property p, UNION(u, u')" loop.
  void AddEdges(std::span<const rdf::Triple> edges);

  /// Labels every vertex with a dense component id in [0, num_components).
  /// Component ids are assigned in order of first root appearance.
  std::vector<uint32_t> ComponentLabels();

  /// True if a and b are currently in the same component.
  bool Connected(uint32_t a, uint32_t b) {
    return Find(a) == Find(b);
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
  std::vector<uint32_t> size_;
  size_t max_component_size_;
  size_t num_components_;
};

/// Cost({p}) per Definition 4.2 for a single property's edge span,
/// computed with a forest local to the touched vertices (O(|edges| α)
/// time and memory, independent of |V|). This is the per-property
/// precomputation of Algorithm 1 lines 2-4.
size_t MaxWccOfEdges(std::span<const rdf::Triple> edges);

/// Cost(base ∪ {p}): the largest component after notionally adding
/// `edges` on top of `base`, WITHOUT mutating base. Implements the
/// forest-merge of Section IV-D (DS(L_in ∪ {p}) from DS(L_in) and
/// DS({p})) lazily over the roots touched by `edges`, so one candidate
/// evaluation costs O(|edges(p)| α) instead of O(|V|).
size_t TrialMergeMaxComponent(const DisjointSetForest& base,
                              std::span<const rdf::Triple> edges);

/// The same over several edge runs at once: Cost(base ∪ every run).
size_t TrialMergeMaxComponent(
    const DisjointSetForest& base,
    std::initializer_list<std::span<const rdf::Triple>> edge_runs);

}  // namespace mpc::dsf

#endif  // MPC_DSF_DISJOINT_SET_FOREST_H_
