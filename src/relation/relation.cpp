#include "relation/relation.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cq::rel {

Relation::Relation(Schema schema, std::vector<Tuple> rows) : schema_(std::move(schema)) {
  rows_.reserve(rows.size());
  for (auto& r : rows) {
    if (r.tid().valid()) {
      insert(std::move(r));
    } else {
      append(std::move(r));
    }
  }
}

const Tuple& Relation::row(std::size_t i) const {
  if (i >= rows_.size()) throw common::InvalidArgument("Relation::row out of range");
  return rows_[i];
}

void Relation::set_schema(Schema schema) {
  if (schema.size() != schema_.size()) {
    throw common::SchemaMismatch("Relation::set_schema arity mismatch");
  }
  schema_ = std::move(schema);
}

void Relation::check_arity(const Tuple& t) const {
  if (t.size() != schema_.size()) {
    throw common::SchemaMismatch("Relation: tuple arity " + std::to_string(t.size()) +
                                 " != schema arity " + std::to_string(schema_.size()) +
                                 " for " + schema_.to_string());
  }
}

void Relation::insert(Tuple tuple) {
  check_arity(tuple);
  if (!tuple.tid().valid()) {
    throw common::InvalidArgument("Relation::insert requires a valid tid");
  }
  if (by_tid_.contains(tuple.tid())) {
    throw common::InvalidArgument("Relation::insert duplicate tid " + tuple.tid().to_string());
  }
  next_tid_ = std::max(next_tid_, tuple.tid().raw() + 1);
  by_tid_.assign(tuple.tid(), rows_.size());
  rows_.push_back(std::move(tuple));
}

TupleId Relation::insert_values(std::vector<Value> values) {
  const TupleId tid(next_tid_);
  insert(Tuple(std::move(values), tid));
  return tid;
}

Tuple Relation::erase(TupleId tid) {
  const std::size_t* at = by_tid_.find(tid);
  if (at == nullptr) {
    throw common::NotFound("Relation::erase: no tid " + tid.to_string());
  }
  return remove_at(*at);
}

Tuple Relation::remove_at(std::size_t i) {
  Tuple removed = std::move(rows_[i]);
  const std::size_t last = rows_.size() - 1;
  if (i != last) rows_[i] = std::move(rows_[last]);
  rows_.pop_back();
  if (removed.tid().valid()) {
    std::size_t* at = by_tid_.find(removed.tid());
    if (*at != i) {
      --tid_repeats_;  // an unindexed repeat went; the indexed copy stays
    } else {
      // The indexed copy went: hand the entry to a remaining repeat, if any.
      by_tid_.erase(removed.tid());
      for (std::size_t j = 0; tid_repeats_ > 0 && j < rows_.size(); ++j) {
        if (rows_[j].tid() == removed.tid()) {
          by_tid_.assign(removed.tid(), j);
          --tid_repeats_;
          break;
        }
      }
    }
  }
  if (i != last && rows_[i].tid().valid()) {
    std::size_t* moved = by_tid_.find(rows_[i].tid());
    if (*moved == last) *moved = i;
  }
  return removed;
}

Tuple Relation::update(TupleId tid, std::vector<Value> values) {
  const std::size_t* at = by_tid_.find(tid);
  if (at == nullptr) {
    throw common::NotFound("Relation::update: no tid " + tid.to_string());
  }
  Tuple replacement(std::move(values), tid);
  check_arity(replacement);
  Tuple old = std::move(rows_[*at]);
  rows_[*at] = std::move(replacement);
  return old;
}

bool Relation::contains(TupleId tid) const noexcept { return by_tid_.contains(tid); }

const Tuple* Relation::find(TupleId tid) const noexcept {
  const std::size_t* at = by_tid_.find(tid);
  return at == nullptr ? nullptr : &rows_[*at];
}

void Relation::append(Tuple tuple) {
  check_arity(tuple);
  if (tuple.tid().valid()) {
    if (by_tid_.contains(tuple.tid())) {
      // Derived results can legitimately carry repeated tids (e.g. a tuple
      // matched twice through a self-join); index only the first occurrence.
      ++tid_repeats_;
    } else {
      by_tid_.assign(tuple.tid(), rows_.size());
      next_tid_ = std::max(next_tid_, tuple.tid().raw() + 1);
    }
  }
  rows_.push_back(std::move(tuple));
}

bool Relation::remove_one_by_value(const Tuple& values) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].same_values(values)) {
      remove_at(i);
      return true;
    }
  }
  return false;
}

bool Relation::remove_one(const Tuple& tuple) {
  if (const std::size_t* at = by_tid_.find(tuple.tid())) {
    remove_at(*at);
    return true;
  }
  return remove_one_by_value(tuple);
}

bool Relation::equal_multiset(const Relation& other) const {
  if (size() != other.size()) return false;
  if (!schema_.union_compatible(other.schema_)) return false;
  TupleBag bag;
  for (const auto& r : rows_) bag.add(r, +1);
  for (const auto& r : other.rows_) bag.add(r, -1);
  return bag.all_zero();
}

std::size_t Relation::count_value(const Tuple& values) const {
  std::size_t n = 0;
  for (const auto& r : rows_) {
    if (r.same_values(values)) ++n;
  }
  return n;
}

std::string Relation::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << schema_.to_string() << " [" << rows_.size() << " rows]\n";
  std::size_t shown = 0;
  for (const auto& r : sorted_rows()) {
    if (shown++ == max_rows) {
      os << "  ...\n";
      break;
    }
    os << "  " << r.to_string();
    if (r.tid().valid()) os << " @tid=" << r.tid().to_string();
    os << "\n";
  }
  return os.str();
}

std::size_t Relation::byte_size() const noexcept {
  std::size_t total = 0;
  for (const auto& r : rows_) total += r.byte_size();
  return total;
}

std::vector<Tuple> Relation::sorted_rows() const {
  std::vector<Tuple> out = rows_;
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      auto c = a.values()[i].compare(b.values()[i]);
      if (c != std::strong_ordering::equal) return c == std::strong_ordering::less;
    }
    if (a.size() != b.size()) return a.size() < b.size();
    return a.tid() < b.tid();
  });
  return out;
}

void TupleBag::add(const Tuple& t, std::ptrdiff_t count) {
  // Hash and Eq read values only, so the caller's tuple is the lookup key;
  // a first insert stores a tid- and lineage-free copy.
  auto it = counts_.find(t);
  if (it == counts_.end()) {
    counts_.emplace(Tuple(t.values()), count);
  } else {
    it->second += count;
    if (it->second == 0) counts_.erase(it);
  }
}

std::ptrdiff_t TupleBag::count(const Tuple& t) const {
  auto it = counts_.find(t);
  return it == counts_.end() ? 0 : it->second;
}

bool TupleBag::all_zero() const { return counts_.empty(); }

}  // namespace cq::rel
