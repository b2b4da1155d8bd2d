// cqlint negative fixture: pin-before-snapshot.
//
// DeltaRelation reads (net_effect / insertions / deletions) must happen
// under a live ReadPin — otherwise GC may truncate the delta log rows
// mid-read (use-after-truncate). A class that holds a ReadPin member
// pins every read its member functions make.
#include <cstdint>
#include <vector>

namespace cq::delta {

struct DeltaRow {
  std::int64_t tid = 0;
};

class DeltaRelation {
 public:
  class ReadPin {
   public:
    ReadPin() = default;
    ~ReadPin() = default;
  };

  ReadPin pin_reads() const { return ReadPin{}; }
  const std::vector<DeltaRow>& net_effect(std::int64_t since) const {
    (void)since;
    return rows_;
  }
  const std::vector<DeltaRow>& insertions(std::int64_t since) const {
    (void)since;
    return rows_;
  }

 private:
  std::vector<DeltaRow> rows_;
};

// OK (near-miss): the member read below is pinned for the object's
// whole lifetime by pin_.
class PinnedView {
 public:
  explicit PinnedView(const DeltaRelation& source)
      : source_(source), pin_(source.pin_reads()) {}
  const std::vector<DeltaRow>& net_effect(std::int64_t since) const {
    return source_.net_effect(since);
  }

 private:
  const DeltaRelation& source_;
  DeltaRelation::ReadPin pin_;
};

}  // namespace cq::delta

namespace cq {

// VIOLATION: live-log read with no pin in scope — GC can truncate the
// vector this loop is walking.
std::size_t count_unpinned(const delta::DeltaRelation& rel, std::int64_t since) {
  std::size_t n = 0;
  for (const auto& row : rel.net_effect(since)) {  // cqlint-expect: pin-before-snapshot
    (void)row;
    ++n;
  }
  return n;
}

// VIOLATION: insertions() is the same read path under another name.
std::size_t count_insertions(const delta::DeltaRelation& rel, std::int64_t since) {
  return rel.insertions(since).size();  // cqlint-expect: pin-before-snapshot
}

// OK (near-miss): the pin is taken first and lives across the read.
std::size_t count_pinned(const delta::DeltaRelation& rel, std::int64_t since) {
  const auto pin = rel.pin_reads();
  return rel.net_effect(since).size();
}

// VIOLATION: a receiver *named* like a snapshot is no pin — only a live
// ReadPin is.
std::size_t count_snap(const delta::DeltaRelation& snap, std::int64_t since) {
  return snap.net_effect(since).size();  // cqlint-expect: pin-before-snapshot
}

}  // namespace cq
