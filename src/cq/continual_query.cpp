#include "cq/continual_query.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "algebra/ops.hpp"
#include "common/error.hpp"
#include "cq/propagate.hpp"
#include "query/parser.hpp"
#include "query/planner.hpp"

namespace cq::core {

using common::Timestamp;
using rel::Relation;

const char* to_string(DeliveryMode mode) noexcept {
  switch (mode) {
    case DeliveryMode::kInsertionsOnly: return "insertions-only";
    case DeliveryMode::kDeletionsOnly: return "deletions-only";
    case DeliveryMode::kDifferential: return "differential";
    case DeliveryMode::kComplete: return "complete";
  }
  return "?";
}

CqSpec CqSpec::from_sql(std::string name, const std::string& sql, TriggerPtr trigger,
                        StopPtr stop, DeliveryMode mode) {
  CqSpec spec;
  spec.name = std::move(name);
  spec.query = qry::parse_query(sql);
  spec.trigger = std::move(trigger);
  spec.stop = std::move(stop);
  spec.mode = mode;
  return spec;
}

ContinualQuery::ContinualQuery(CqSpec spec, const cat::Database& db)
    : spec_(std::move(spec)), core_(spec_.query.spj_core()), last_exec_(Timestamp::min()) {
  spec_.query.validate();
  if (!spec_.trigger) throw common::InvalidArgument("CQ '" + spec_.name + "': no trigger");
  if (!spec_.stop) spec_.stop = stop::never();
  for (const auto& ref : spec_.query.from) {
    if (!db.has_table(ref.table)) {
      throw common::NotFound("CQ '" + spec_.name + "': unknown table '" + ref.table + "'");
    }
    relations_.push_back(ref.table);
  }
}

rel::Relation ContinualQuery::delivered_aggregate() const {
  Relation out = agg_state_->current();
  if (spec_.query.having) out = alg::select(out, *spec_.query.having);
  return out;
}

TriggerContext ContinualQuery::context(const cat::Database& db) const {
  return TriggerContext{db, relations_, last_exec_, db.clock().now(), executions_};
}

bool ContinualQuery::should_fire(const cat::Database& db) const {
  return !finished_ && spec_.trigger->should_fire(context(db));
}

bool ContinualQuery::should_stop(const cat::Database& db) const {
  return finished_ || spec_.stop->satisfied(context(db));
}

ContinualQuery::Staleness ContinualQuery::staleness(const cat::Database& db) const {
  Staleness out;
  out.age = db.clock().now() - last_exec_;

  const qry::BoundFrom from = qry::bind_from(core_, db);
  const qry::PlannedQuery planned = qry::plan(core_, from.schemas, from.cardinalities);
  for (std::size_t i = 0; i < core_.from.size(); ++i) {
    const BoundDelta d = filtered_delta(db, core_.from[i].table, from.schemas[i],
                                        planned.filter(i), last_exec_);
    out.pending_changes += d.rows_read;
    out.relevant_changes += d.rows.size();
  }
  return out;
}

std::string ContinualQuery::explain(const cat::Database& db) const {
  std::ostringstream os;
  os << "CQ '" << spec_.name << "': " << spec_.query.to_string() << "\n";
  os << "  trigger: " << spec_.trigger->describe() << "\n";
  os << "  stop: " << spec_.stop->describe() << "\n";
  os << "  mode: " << core::to_string(spec_.mode) << ", strategy: "
     << (spec_.strategy == ExecutionStrategy::kDra ? "DRA" : "recompute") << "\n";
  os << "  executions: " << executions_ << ", last at t=" << last_exec_.to_string()
     << "\n";

  const qry::BoundFrom from = qry::bind_from(core_, db);
  os << "  " << qry::plan(core_, from.schemas, from.cardinalities).to_string(core_);

  for (std::size_t i = 0; i < core_.from.size(); ++i) {
    const auto& d = db.delta(core_.from[i].table);
    const auto pin = d.pin_reads();  // hold GC off while we count the window
    const std::size_t pending =
        d.changed_since(last_exec_) ? d.net_effect(last_exec_).size() : 0;
    os << "  Δ" << core_.from[i].table << ": " << pending << " pending net rows";
    const auto names = db.index_names(core_.from[i].table);
    if (!names.empty()) {
      os << " (indexes:";
      for (const auto& n : names) os << " " << n;
      os << ")";
    }
    os << "\n";
  }
  const Staleness s = staleness(db);
  os << "  staleness: " << s.pending_changes << " pending / " << s.relevant_changes
     << " relevant changes, age " << s.age.ticks() << " ticks\n";
  return os.str();
}

namespace {

/// Lift a multiset SPJ-level diff to DISTINCT level, updating `counts` to
/// the post-diff multiplicities. A distinct row is inserted when its count
/// rises from zero and deleted when it falls to zero.
DiffResult lift_to_distinct(rel::TupleBag& counts, const DiffResult& raw,
                            const rel::Schema& schema) {
  DiffResult out;
  out.inserted = Relation(schema);
  out.deleted = Relation(schema);
  for (const auto& row : raw.deleted.rows()) {
    counts.add(row, -1);
    const auto remaining = counts.count(row);
    if (remaining < 0) {
      throw common::InternalError("distinct maintenance: negative multiplicity");
    }
    if (remaining == 0) {
      rel::Tuple lifted(row.values());
      lifted.set_prov(row.prov());
      out.deleted.append(std::move(lifted));
    }
  }
  for (const auto& row : raw.inserted.rows()) {
    const auto before = counts.count(row);
    counts.add(row, +1);
    if (before == 0) {
      rel::Tuple lifted(row.values());
      lifted.set_prov(row.prov());
      out.inserted.append(std::move(lifted));
    }
  }
  return out;
}

/// Attach to each aggregate delta row the union of the lineage sets of the
/// raw ΔQ rows that landed in its group: the aggregate output's first
/// |group_by| columns are the group key (AggregateState::group_columns
/// documents the layout), and every raw SPJ row keys its group at those
/// source columns.
void attach_group_lineage(const AggregateState& state, const DiffResult& raw,
                          DiffResult& delta) {
  const std::vector<std::size_t>& group_cols = state.group_columns();
  std::map<std::vector<rel::Value>, rel::prov::ProvSetPtr> by_group;
  auto fold = [&](const Relation& r) {
    for (const auto& row : r.rows()) {
      if (!row.prov()) continue;
      std::vector<rel::Value> key;
      key.reserve(group_cols.size());
      for (auto gi : group_cols) key.push_back(row.at(gi));
      rel::prov::ProvSetPtr& slot = by_group[std::move(key)];
      slot = rel::prov::merge(slot, row.prov());
    }
  };
  fold(raw.inserted);
  fold(raw.deleted);
  auto attach = [&](Relation& r) {
    for (auto& row : r.mutable_rows()) {
      std::vector<rel::Value> key(row.values().begin(),
                                  row.values().begin() +
                                      static_cast<std::ptrdiff_t>(group_cols.size()));
      auto it = by_group.find(key);
      if (it != by_group.end()) row.set_prov(it->second);
    }
  };
  attach(delta.inserted);
  attach(delta.deleted);
}

rel::Relation distinct_from_counts(const rel::TupleBag& counts, const rel::Schema& schema) {
  Relation out(schema);
  counts.for_each([&](const rel::Tuple& t, std::ptrdiff_t) { out.append(t); });
  return out;
}

}  // namespace

bool ContinualQuery::keeps_saved_result() const noexcept {
  // DISTINCT and aggregate CQs deliver from their own state; a plain CQ
  // needs the saved result to deliver a complete one.
  return spec_.strategy == ExecutionStrategy::kRecompute ||
         (spec_.mode == DeliveryMode::kComplete && !spec_.query.is_aggregate() &&
          !spec_.query.distinct);
}

void ContinualQuery::rebuild_state(Relation spj) {
  saved_result_.reset();
  result_counts_.reset();
  agg_state_.reset();
  if (spec_.query.is_aggregate()) {
    agg_state_.emplace(spj.schema(), spec_.query.group_by, spec_.query.aggregates);
    agg_state_->initialize(spj);
  } else if (spec_.query.distinct) {
    result_counts_.emplace();
    for (const auto& row : spj.rows()) result_counts_->add(row, +1);
  }
  if (keeps_saved_result()) saved_result_ = std::move(spj);
}

Notification ContinualQuery::prime_from_scratch(const cat::Database& db,
                                                common::Metrics* metrics) {
  Relation spj = recompute(core_, db, metrics);
  if (metrics != nullptr) metrics->add(common::metric::kQueryExecutions, 1);

  Notification note;
  note.cq_name = spec_.name;
  note.delta.inserted = Relation(spj.schema());
  note.delta.deleted = Relation(spj.schema());
  if (!spec_.query.is_aggregate() && !spec_.query.distinct) note.complete = spj;
  rebuild_state(std::move(spj));
  if (agg_state_) {
    note.aggregate = delivered_aggregate();
    note.complete = note.aggregate;
  } else if (result_counts_) {
    note.complete = distinct_from_counts(*result_counts_, note.delta.inserted.schema());
  }

  reprime_pending_ = false;
  last_exec_ = db.clock().now();
  note.at = last_exec_;
  return note;
}

bool ContinualQuery::needs_reprime() const noexcept {
  const bool state_missing =
      spec_.query.is_aggregate() ? !agg_state_ : spec_.query.distinct && !result_counts_;
  return reprime_pending_ || state_missing || (keeps_saved_result() && !saved_result_);
}

Notification ContinualQuery::execute_initial(const cat::Database& db,
                                             common::Metrics* metrics) {
  if (executions_ != 0) {
    throw common::InvalidArgument("CQ '" + spec_.name + "': already initialized");
  }
  Notification note = prime_from_scratch(db, metrics);
  note.sequence = 0;
  executions_ = 1;
  return note;
}

void ContinualQuery::restore(const cat::Database& db, Timestamp last_execution,
                             std::uint64_t executions) {
  if (executions_ != 0) {
    throw common::InvalidArgument("CQ '" + spec_.name + "': restore on a live CQ");
  }
  if (executions == 0) {
    throw common::InvalidArgument("CQ '" + spec_.name +
                                  "': restore needs executions >= 1");
  }
  // If garbage collection already reclaimed part of the rollback window
  // (last_execution, now], the inverted differential below would silently
  // reconstruct the *wrong* previous result (the truncated prefix of the
  // window is simply missing from the log). Detect it via the truncation
  // watermark and re-prime on the next execution instead of rolling back.
  for (const auto& ref : core_.from) {
    const auto reclaimed = db.delta(ref.table).truncated_through();
    if (reclaimed && *reclaimed > last_execution) {
      invalidate_saved_result();
      executions_ = executions;
      last_exec_ = last_execution;
      return;
    }
  }

  // Reconstruct the SPJ result as of last_execution: current state rolled
  // back by the inverted delta window (last_execution, now].
  DiffResult window = dra_differential(core_, db, last_execution, nullptr,
                                       spec_.dra_options);
  std::swap(window.inserted, window.deleted);
  rebuild_state(apply_diff(recompute(core_, db), window));

  executions_ = executions;
  last_exec_ = last_execution;
}

Notification ContinualQuery::execute(const cat::Database& db, common::Metrics* metrics,
                                     DraStats* stats) {
  if (executions_ == 0) return execute_initial(db, metrics);
  if (needs_reprime()) {
    // State the strategy/mode relies on is gone (explicit invalidation, or
    // restore() found the rollback window GC-truncated). Re-prime: one full
    // recompute, delivered as a complete result with an empty delta.
    Notification note = prime_from_scratch(db, metrics);
    note.sequence = executions_;
    ++executions_;
    return note;
  }
  // ---- ΔQ of the SPJ core ----
  DiffResult raw;
  if (spec_.strategy == ExecutionStrategy::kDra) {
    raw = dra_differential(core_, db, last_exec_, metrics, spec_.dra_options, stats);
    if (saved_result_) saved_result_ = apply_diff(*saved_result_, raw);
  } else {
    Relation current = recompute(core_, db, metrics);
    raw = diff(*saved_result_, current);
    saved_result_ = std::move(current);
  }
  if (metrics != nullptr) metrics->add(common::metric::kQueryExecutions, 1);

  Notification note;
  note.cq_name = spec_.name;
  note.sequence = executions_;

  // ---- assemble per delivery mode (Algorithm 1, step 4) ----
  if (spec_.query.is_aggregate()) {
    const Relation before = delivered_aggregate();
    agg_state_->apply(raw);
    const Relation after = delivered_aggregate();
    note.aggregate = after;
    note.delta = diff(before, after);
    if (rel::prov::enabled()) attach_group_lineage(*agg_state_, raw, note.delta);
    if (spec_.mode == DeliveryMode::kComplete) note.complete = after;
  } else if (spec_.query.distinct) {
    note.delta = lift_to_distinct(*result_counts_, raw, raw.inserted.schema());
    if (spec_.mode == DeliveryMode::kComplete) {
      note.complete = distinct_from_counts(*result_counts_, raw.inserted.schema());
    }
  } else {
    note.delta = raw;
    if (spec_.mode == DeliveryMode::kComplete) note.complete = *saved_result_;
  }

  switch (spec_.mode) {
    case DeliveryMode::kInsertionsOnly:
      note.delta.deleted = Relation(note.delta.deleted.schema());
      break;
    case DeliveryMode::kDeletionsOnly:
      note.delta.inserted = Relation(note.delta.inserted.schema());
      break;
    case DeliveryMode::kDifferential:
    case DeliveryMode::kComplete:
      break;
  }

  ++executions_;
  last_exec_ = db.clock().now();
  note.at = last_exec_;
  return note;
}

}  // namespace cq::core
