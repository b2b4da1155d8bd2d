// cqlint negative fixture: exhaustive-switch.
//
// Switches over project enums must enumerate every variant. A silent
// `default:` compiles clean when a new variant is added and then
// misroutes it at runtime; loud defaults (throw / fail / abort) are the
// sanctioned escape because they fail the query instead of guessing.
#include <stdexcept>
#include <string>

namespace cq {

enum class DeltaKind { kInsert, kDelete, kUpdate, kRescan };

// VIOLATION: silent default over DeltaKind — when kRescan grew out of
// the compaction work it fell into this bucket and was dropped.
inline int weight_bad(DeltaKind k) {
  switch (k) {
    case DeltaKind::kInsert:
      return 1;
    case DeltaKind::kDelete:
      return 1;
    default:  // cqlint-expect: exhaustive-switch
      return 0;
  }
}

// VIOLATION: no default AND missing variants — kUpdate / kRescan fall
// off the end and the caller reads an unset value.
inline std::string name_bad(DeltaKind k) {
  std::string out = "?";
  switch (k) {  // cqlint-expect: exhaustive-switch
    case DeltaKind::kInsert:
      out = "insert";
      break;
    case DeltaKind::kDelete:
      out = "delete";
      break;
  }
  return out;
}

// OK (near-miss): every variant enumerated, no default — adding a
// variant turns on -Wswitch and the build fails loudly.
inline int weight_ok(DeltaKind k) {
  switch (k) {
    case DeltaKind::kInsert:
      return 1;
    case DeltaKind::kDelete:
      return 1;
    case DeltaKind::kUpdate:
      return 2;
    case DeltaKind::kRescan:
      return 8;
  }
  return 0;
}

// OK (near-miss): the default is loud — unknown variants throw instead
// of silently collapsing into a guess.
inline std::string name_ok(DeltaKind k) {
  switch (k) {
    case DeltaKind::kInsert:
      return "insert";
    case DeltaKind::kDelete:
      return "delete";
    default:
      throw std::logic_error("unhandled DeltaKind");
  }
}

// An unscoped enum: its case labels carry no qualifier, so the enum is
// resolved from the variant names alone (the metric::Id shape).
enum Counter : int { kRows, kBytes, kProbes, kCounterCount };

// VIOLATION: unqualified labels, kProbes missing.
inline const char* counter_name(Counter c) {
  switch (c) {  // cqlint-expect: exhaustive-switch
    case kRows:
      return "rows";
    case kBytes:
      return "bytes";
    case kCounterCount:
      break;
  }
  return "?";
}

// OK (near-miss): unqualified labels covering every variant.
inline const char* counter_name_ok(Counter c) {
  switch (c) {
    case kRows:
      return "rows";
    case kBytes:
      return "bytes";
    case kProbes:
      return "probes";
    case kCounterCount:
      break;
  }
  return "?";
}

}  // namespace cq
