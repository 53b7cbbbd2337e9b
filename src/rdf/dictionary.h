#ifndef MPC_RDF_DICTIONARY_H_
#define MPC_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/types.h"

namespace mpc::rdf {

/// Interns RDF term lexical forms into dense 32-bit ids. Two independent
/// dictionaries are used per graph: one for vertices (subjects/objects)
/// and one for properties, matching the id spaces of Definition 3.1.
///
/// The stored lexical form is the canonical N-Triples token, e.g.
/// "<http://example.org/x>", "\"literal\"" or "_:b0", so round-tripping a
/// file through parse + serialize is byte-identical modulo ordering.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not copyable: graphs share dictionaries by reference.
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Deep copy preserving ids. (The implicit copy is deleted so sharing
  /// stays deliberate.)
  Dictionary Clone() const;

  /// Returns the id of `term`, inserting it if new. Ids are assigned
  /// densely in first-seen order.
  uint32_t Intern(std::string_view term);

  /// Returns the id of `term` or kInvalidVertex when absent.
  uint32_t Lookup(std::string_view term) const;

  /// Returns the lexical form for `id`. `id` must be in range.
  const std::string& Lexical(uint32_t id) const { return terms_[id]; }

  /// Classifies the stored lexical form of `id`.
  TermKind KindOf(uint32_t id) const;

  size_t size() const { return terms_.size(); }
  bool empty() const { return terms_.empty(); }

  /// Approximate heap footprint in bytes (for the offline loading report).
  size_t MemoryUsage() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// Low 32 bits of the term's hash; picks the first probe slot.
  static uint32_t HashOf(std::string_view term);

  /// The slot holding `term`'s id, or the empty slot where its probe
  /// ends. index_ must not be empty.
  size_t FindSlot(std::string_view term, uint32_t hash) const;

  /// Re-inserts every id into a table of `num_slots` (a power of two).
  void Rehash(size_t num_slots);

  // Deque keeps element addresses stable under growth, so a Lexical()
  // reference stays valid while more terms are interned.
  std::deque<std::string> terms_;
  /// hashes_[id] = HashOf(terms_[id]): compared before the strings, and
  /// reused when the table grows.
  std::vector<uint32_t> hashes_;
  /// Open-addressing index with linear probing: each slot holds an id or
  /// kEmptySlot, and at most half of the slots are used.
  std::vector<uint32_t> index_;
};

}  // namespace mpc::rdf

#endif  // MPC_RDF_DICTIONARY_H_
