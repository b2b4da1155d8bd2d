// cqlint negative fixture: guarded-ref-escape.
//
// NOT compiled into any target — scripts/cqlint/cqlint.py --self-test
// analyzes this file and asserts the rule fires exactly on the lines
// marked `cqlint-expect` (and nowhere else: the copying accessor and the
// unguarded reference below are deliberate near-misses).
//
// Self-contained stubs mirroring src/common/sync.hpp.
#include <map>
#include <string>
#include <vector>

#define CQ_GUARDED_BY(x) __attribute__((annotate("guarded_by:" #x)))

namespace cq::common {
class Mutex {
 public:
  void lock() {}
  void unlock() {}
};
class LockGuard {
 public:
  explicit LockGuard(Mutex& mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() { mu_.unlock(); }

 private:
  Mutex& mu_;
};
}  // namespace cq::common

namespace cq {

class StatsRegistry {
 public:
  // VIOLATION: the reference outlives the critical section — the caller
  // dereferences rows_ after ~LockGuard released mu_.
  const std::vector<int>& rows() const {  // cqlint-expect: guarded-ref-escape
    common::LockGuard lock(mu_);
    return rows_;
  }

  // VIOLATION: a pointer escape is the same defect in a hat.
  const std::map<std::string, int>* by_name() const {  // cqlint-expect: guarded-ref-escape
    common::LockGuard lock(mu_);
    return &by_name_;
  }

  // VIOLATION: a trailing return type hides the reference from a
  // return-type scan that reads only the text before the name.
  auto rows_trailing() const -> const std::vector<int>& {  // cqlint-expect: guarded-ref-escape
    common::LockGuard lock(mu_);
    return rows_;
  }

  // OK (near-miss): copy-returning accessor — the repo-sanctioned shape.
  std::vector<int> rows_copy() const {
    common::LockGuard lock(mu_);
    return rows_;
  }

  // OK (near-miss): reference to an unguarded field is not this rule's
  // business.
  const std::string& name() const { return name_; }

 private:
  mutable common::Mutex mu_;
  std::vector<int> rows_ CQ_GUARDED_BY(mu_);
  std::map<std::string, int> by_name_ CQ_GUARDED_BY(mu_);
  std::string name_;
};

}  // namespace cq
