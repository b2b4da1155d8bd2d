#include "delta/delta_relation.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"

namespace cq::delta {

using common::Timestamp;
using rel::Relation;
using rel::Tuple;
using rel::TupleId;
using rel::Value;

const char* to_string(ChangeKind kind) noexcept {
  switch (kind) {
    case ChangeKind::kInsert: return "INSERT";
    case ChangeKind::kDelete: return "DELETE";
    case ChangeKind::kModify: return "MODIFY";
  }
  return "?";
}

DeltaRelation::DeltaRelation(rel::Schema base_schema)
    : base_schema_(std::move(base_schema)) {
  rel::Schema doubled = base_schema_.doubled();
  std::vector<rel::Attribute> wide = doubled.attributes();
  wide.push_back({"__tid", rel::ValueType::kInt});
  wide.push_back({"__ts", rel::ValueType::kInt});
  wide_schema_ = rel::Schema(std::move(wide));
}

void DeltaRelation::check_values(
    const std::optional<std::vector<Value>>& values) const {
  if (values && values->size() != base_schema_.size()) {
    throw common::SchemaMismatch("DeltaRelation: arity " +
                                 std::to_string(values->size()) + " != base arity " +
                                 std::to_string(base_schema_.size()));
  }
}

void DeltaRelation::append(DeltaRow row) {
  if (!row.tid.valid()) {
    throw common::InvalidArgument("DeltaRelation: row must carry a valid tid");
  }
  if (!row.old_values && !row.new_values) {
    throw common::InvalidArgument("DeltaRelation: row must carry old or new values");
  }
  check_values(row.old_values);
  check_values(row.new_values);
  if (!rows_.empty() && row.ts < rows_.back().ts) {
    throw common::InvalidArgument(
        "DeltaRelation: timestamps must be non-decreasing (got " + row.ts.to_string() +
        " after " + rows_.back().ts.to_string() + ")");
  }
  row.seq = next_seq_++;
  bytes_ += row.byte_size();
  rows_.push_back(std::move(row));
}

void DeltaRelation::set_name(const std::string& name) {
  prov_rel_ = rel::prov::intern_relation(name);
}

void DeltaRelation::record_insert(TupleId tid, std::vector<Value> values, Timestamp ts) {
  append(DeltaRow{tid, std::nullopt, std::move(values), ts});
}

void DeltaRelation::record_delete(TupleId tid, std::vector<Value> old_values,
                                  Timestamp ts) {
  append(DeltaRow{tid, std::move(old_values), std::nullopt, ts});
}

void DeltaRelation::record_modify(TupleId tid, std::vector<Value> old_values,
                                  std::vector<Value> new_values, Timestamp ts) {
  append(DeltaRow{tid, std::move(old_values), std::move(new_values), ts});
}

std::optional<Timestamp> DeltaRelation::latest() const noexcept {
  if (rows_.empty()) return std::nullopt;
  return rows_.back().ts;
}

bool DeltaRelation::changed_since(Timestamp since) const noexcept {
  return !rows_.empty() && rows_.back().ts > since;
}

std::vector<DeltaRow> DeltaRelation::net_effect(Timestamp since) const {
  std::vector<DeltaRow> out;
  std::unordered_map<TupleId, std::size_t> position;  // tid -> index in out

  // rows_ is ts-ordered; binary search the window start.
  auto first = std::lower_bound(
      rows_.begin(), rows_.end(), since,
      [](const DeltaRow& r, Timestamp t) { return r.ts <= t; });

  for (auto it = first; it != rows_.end(); ++it) {
    const DeltaRow& change = *it;
    auto pos = position.find(change.tid);
    if (pos == position.end()) {
      position.emplace(change.tid, out.size());
      out.push_back(change);
      continue;
    }
    DeltaRow& acc = out[pos->second];
    // Compose acc (earlier) with change (later). The earliest old half and
    // the latest new half survive. The latest row also lends its (ts, seq)
    // so the net row's lineage id resolves to a physical row in the log.
    acc.new_values = change.new_values;
    acc.ts = change.ts;
    acc.seq = change.seq;
  }

  // Collapse no-ops: insert∘delete (both halves absent after composition is
  // impossible by construction, so detect via kind) and modify that landed
  // back on the original values.
  std::vector<DeltaRow> compacted;
  compacted.reserve(out.size());
  for (auto& row : out) {
    if (!row.old_values && !row.new_values) continue;  // defensive; unreachable
    if (row.old_values && !row.new_values) {
      compacted.push_back(std::move(row));  // net delete
      continue;
    }
    if (!row.old_values && row.new_values) {
      compacted.push_back(std::move(row));  // net insert
      continue;
    }
    // Modify: drop when values are unchanged end-to-end.
    const auto& o = *row.old_values;
    const auto& n = *row.new_values;
    bool identical = o.size() == n.size();
    for (std::size_t i = 0; identical && i < o.size(); ++i) identical = o[i] == n[i];
    if (!identical) compacted.push_back(std::move(row));
  }
  return compacted;
}

rel::Relation DeltaRelation::insertions(Timestamp since) const {
  Relation out(base_schema_);
  const bool lineage = rel::prov::enabled();
  for (const auto& row : net_effect(since)) {
    if (!row.new_values) continue;
    Tuple t(*row.new_values, row.tid);
    if (lineage) t.set_prov(rel::prov::leaf(prov_id_of(row)));
    out.append(std::move(t));
  }
  return out;
}

rel::Relation DeltaRelation::deletions(Timestamp since) const {
  Relation out(base_schema_);
  const bool lineage = rel::prov::enabled();
  for (const auto& row : net_effect(since)) {
    if (!row.old_values) continue;
    Tuple t(*row.old_values, row.tid);
    if (lineage) t.set_prov(rel::prov::leaf(prov_id_of(row)));
    out.append(std::move(t));
  }
  return out;
}

rel::Relation DeltaRelation::as_wide_relation(Timestamp since) const {
  Relation out(wide_schema_);
  const std::size_t n = base_schema_.size();
  for (const auto& row : net_effect(since)) {
    std::vector<Value> values;
    values.reserve(2 * n + 2);
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(row.old_values ? (*row.old_values)[i] : Value::null());
    }
    for (std::size_t i = 0; i < n; ++i) {
      values.push_back(row.new_values ? (*row.new_values)[i] : Value::null());
    }
    values.emplace_back(static_cast<std::int64_t>(row.tid.raw()));
    values.emplace_back(row.ts.ticks());
    out.append(Tuple(std::move(values), row.tid));
  }
  return out;
}

DeltaRelation::ReadPin::ReadPin(std::shared_ptr<PinState> state)
    : state_(std::move(state)) {
  common::LockGuard lock(state_->mu);
  ++state_->pins;
}

void DeltaRelation::ReadPin::release() noexcept {
  if (!state_) return;
  common::LockGuard lock(state_->mu);
  --state_->pins;
}

DeltaRelation::ReadPin DeltaRelation::pin_reads() const {
  return ReadPin(pin_state_);
}

std::size_t DeltaRelation::read_pins() const {
  common::LockGuard lock(pin_state_->mu);
  return pin_state_->pins;
}

std::size_t DeltaRelation::truncate_before(Timestamp before) {
  // Hold the pin mutex across the whole truncation: a pin taken while we
  // reclaim blocks until the erase is done, and an outstanding pin makes
  // this pass a no-op. Either way no reader ever observes rows_ mid-erase,
  // and the lock hand-off orders the reader's accesses against ours.
  common::LockGuard lock(pin_state_->mu);
  if (pin_state_->pins > 0) return 0;  // deferred: a later GC pass retries
  auto keep_from = std::lower_bound(
      rows_.begin(), rows_.end(), before,
      [](const DeltaRow& r, Timestamp t) { return r.ts <= t; });
  const std::size_t dropped = static_cast<std::size_t>(keep_from - rows_.begin());
  if (dropped > 0) {
    for (auto it = rows_.begin(); it != keep_from; ++it) bytes_ -= it->byte_size();
    const Timestamp last_dropped = (keep_from - 1)->ts;
    if (!truncated_through_ || last_dropped > *truncated_through_) {
      truncated_through_ = last_dropped;
    }
    rows_.erase(rows_.begin(), keep_from);
  }
  return dropped;
}

std::size_t DeltaRow::byte_size() const noexcept {
  std::size_t total = 16;  // tid + ts
  if (old_values) {
    for (const auto& v : *old_values) total += v.byte_size();
  }
  if (new_values) {
    for (const auto& v : *new_values) total += v.byte_size();
  }
  return total;
}

std::string DeltaRelation::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << "Δ" << base_schema_.to_string() << " [" << rows_.size() << " rows]\n";
  std::size_t shown = 0;
  for (const auto& row : rows_) {
    if (shown++ == max_rows) {
      os << "  ...\n";
      break;
    }
    os << "  " << cq::delta::to_string(row.kind()) << " tid=" << row.tid.to_string() << " ts="
       << row.ts.to_string();
    if (row.old_values) os << " old=" << Tuple(*row.old_values).to_string();
    if (row.new_values) os << " new=" << Tuple(*row.new_values).to_string();
    os << "\n";
  }
  return os.str();
}

}  // namespace cq::delta
