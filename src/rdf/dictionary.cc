#include "rdf/dictionary.h"

#include <algorithm>
#include <functional>

namespace mpc::rdf {

Dictionary Dictionary::Clone() const {
  Dictionary copy;
  copy.terms_ = terms_;
  copy.hashes_ = hashes_;
  copy.index_ = index_;
  return copy;
}

uint32_t Dictionary::HashOf(std::string_view term) {
  return static_cast<uint32_t>(std::hash<std::string_view>()(term));
}

size_t Dictionary::FindSlot(std::string_view term, uint32_t hash) const {
  const size_t mask = index_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t id = index_[slot];
    if (id == kEmptySlot || (hashes_[id] == hash && terms_[id] == term)) {
      return slot;
    }
  }
}

void Dictionary::Rehash(size_t num_slots) {
  index_.assign(num_slots, kEmptySlot);
  const size_t mask = num_slots - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t slot = hashes_[id] & mask;
    while (index_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    index_[slot] = id;
  }
}

uint32_t Dictionary::Intern(std::string_view term) {
  if (2 * (terms_.size() + 1) > index_.size()) {
    Rehash(std::max<size_t>(16, 2 * index_.size()));
  }
  const uint32_t hash = HashOf(term);
  const size_t slot = FindSlot(term, hash);
  if (index_[slot] != kEmptySlot) return index_[slot];
  const uint32_t id = static_cast<uint32_t>(terms_.size());
  // The stored copy, not the caller's buffer, backs the term from here on.
  terms_.emplace_back(term);
  hashes_.push_back(hash);
  index_[slot] = id;
  return id;
}

uint32_t Dictionary::Lookup(std::string_view term) const {
  if (index_.empty()) return kInvalidVertex;
  const uint32_t id = index_[FindSlot(term, HashOf(term))];
  return id == kEmptySlot ? kInvalidVertex : id;
}

TermKind Dictionary::KindOf(uint32_t id) const {
  const std::string& t = terms_[id];
  if (!t.empty() && t[0] == '"') return TermKind::kLiteral;
  if (t.size() >= 2 && t[0] == '_' && t[1] == ':') return TermKind::kBlank;
  return TermKind::kIri;
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = terms_.size() * sizeof(std::string);
  for (const auto& t : terms_) bytes += t.capacity();
  return bytes + hashes_.capacity() * sizeof(uint32_t) +
         index_.capacity() * sizeof(uint32_t);
}

}  // namespace mpc::rdf
