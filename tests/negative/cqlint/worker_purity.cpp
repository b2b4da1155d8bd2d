// cqlint negative fixture: worker-purity.
//
// Lambdas submitted to ThreadPool::run_all execute on pool lanes with
// no engine lock held. They may capture engine state only by value —
// everything else must flow back through the serially-replayed side
// effect channel, and a by-reference capture that provably cannot race
// needs a baseline entry saying why.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cq::common {
class ThreadPool {
 public:
  void run_all(std::vector<std::function<void()>> tasks) { (void)tasks; }
};
}  // namespace cq::common

namespace cq {

struct Outcome {
  bool ok = false;
};

using SnapshotMap = std::map<std::string, int>;

struct TriggerContext {
  int fired = 0;
};

class Engine {
 public:
  // VIOLATION: capturing `this` hands a pool lane mutable reach into
  // the whole engine.
  void eval_bad_this(common::ThreadPool& pool) {
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([this]() { counter_ += 1; });  // cqlint-expect: worker-purity
    pool.run_all(std::move(tasks));
  }

  // VIOLATION: a default reference capture makes the purity contract
  // unauditable — nobody can see what the worker touches.
  void eval_bad_default_ref(common::ThreadPool& pool) {
    int scratch = 0;
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&]() { scratch += 1; });  // cqlint-expect: worker-purity
    pool.run_all(std::move(tasks));
    (void)scratch;
  }

  // VIOLATION: a named non-sanctioned reference capture — the worker
  // mutates shared state from a pool lane.
  void eval_bad_named_ref(common::ThreadPool& pool) {
    std::vector<Outcome> outcomes(4);
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&outcomes]() { outcomes[0].ok = true; });  // cqlint-expect: worker-purity
    pool.run_all(std::move(tasks));
  }

  // OK (near-miss): by-value captures are pure — each lane owns its copy.
  void eval_by_value(common::ThreadPool& pool) {
    int seed = 7;
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([seed]() { (void)(seed * 2); });
    pool.run_all(std::move(tasks));
  }

  // OK (near-miss): init-capture moves ownership into the worker (shared
  // so the std::function stays copyable); nothing is mutated cross-lane.
  void eval_init_capture(common::ThreadPool& pool) {
    auto payload = std::make_shared<std::string>("rows");
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([p = std::move(payload)]() { (void)p->size(); });
    pool.run_all(std::move(tasks));
  }

  // VIOLATION: no type name makes a by-reference capture pure — a
  // "snapshot" is shared mutable state unless someone proves otherwise.
  void eval_snapshot_ref(common::ThreadPool& pool) {
    SnapshotMap snapshots;
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&snapshots]() { (void)snapshots.size(); });  // cqlint-expect: worker-purity
    pool.run_all(std::move(tasks));
  }

  // VIOLATION: nor does a name ending in Context.
  void eval_context_ref(common::ThreadPool& pool) {
    TriggerContext ctx;
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&ctx]() { ctx.fired += 1; });  // cqlint-expect: worker-purity
    pool.run_all(std::move(tasks));
  }

  // VIOLATION: a worker bound to a local first and pushed by name is
  // still a worker.
  void eval_bound_worker(common::ThreadPool& pool) {
    std::vector<Outcome> outcomes(4);
    std::vector<std::function<void()>> tasks;
    auto task = [&outcomes]() { outcomes[1].ok = true; };  // cqlint-expect: worker-purity
    tasks.push_back(std::move(task));
    pool.run_all(std::move(tasks));
  }

  // OK (near-miss): a by-reference lambda that never reaches the pool
  // (a sort comparator) is not a worker.
  void eval_with_comparator(common::ThreadPool& pool) {
    std::vector<int> order{3, 1, 2};
    int flips = 0;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      ++flips;
      return a < b;
    });
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([flips]() { (void)flips; });
    pool.run_all(std::move(tasks));
  }

 private:
  int counter_ = 0;
};

}  // namespace cq
