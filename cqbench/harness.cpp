#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

namespace cqbench {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void fnv(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

std::uint64_t value_hash(const cq::rel::Value& v) noexcept {
  using cq::rel::ValueType;
  switch (v.type()) {
    case ValueType::kNull:
      return 0x6e756c6cull;
    case ValueType::kBool:
      return v.as_bool() ? 3 : 2;
    case ValueType::kInt:
      return mix64(static_cast<std::uint64_t>(v.as_int()));
    case ValueType::kDouble: {
      const double d = v.as_double();
      return mix64(static_cast<std::uint64_t>(std::llround(d * 1e6)) ^ 0xd0ull);
    }
    case ValueType::kString: {
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (const char c : v.as_string()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
      }
      return h;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t process_cpu_ns() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t at = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(at),
                   samples.end());
  return samples[at];
}

void Reservoir::add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  state_ += 0x9e3779b97f4a7c15ull;  // splitmix64
  const std::uint64_t slot = mix64(state_) % seen_;
  if (slot < capacity_) values_[slot] = value;
}

std::uint64_t row_hash(const cq::rel::Tuple& row) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const auto& v : row.values()) h = mix64(h ^ value_hash(v));
  return h;
}

void BagHash::add(const cq::rel::Relation& relation, int sign) {
  for (const auto& row : relation.rows()) {
    const std::uint64_t h = mix64(row_hash(row));
    if (sign > 0) {
      sum += h;
      ++rows;
    } else {
      sum -= h;
      --rows;
    }
  }
}

void OracleSink::on_result(const cq::core::Notification& note) {
  const std::uint64_t t0 = wall_ns();
  if (t_notify_us != nullptr) t_notify_us->add(static_cast<double>(t0 - t_cause_ns) / 1e3);
  if (note.sequence != 0 && note.sequence == drop_sequence) return;

  ++notes;
  if (note.sequence != expected_sequence) ++gaps;
  expected_sequence = note.sequence + 1;

  BagHash delta;
  if (note.sequence == 0) {
    // E_0 carries the whole result (the aggregate for aggregate CQs).
    integral = BagHash{};
    if (note.aggregate) {
      integral.add(*note.aggregate, +1);
    } else if (note.complete) {
      integral.add(*note.complete, +1);
    }
    delta = integral;
  } else {
    delta.add(note.delta.inserted, +1);
    BagHash removed;
    removed.add(note.delta.deleted, +1);
    integral.rows += delta.rows - removed.rows;
    integral.sum += delta.sum - removed.sum;
    fnv(digest, static_cast<std::uint64_t>(removed.rows));
    fnv(digest, removed.sum);
  }
  fnv(digest, note.sequence);
  fnv(digest, static_cast<std::uint64_t>(delta.rows));
  fnv(digest, delta.sum);
  if (note.complete) fnv(digest, note.complete->size());
  if (note.aggregate) fnv(digest, note.aggregate->size());

  if (capture_payload) {
    last_payload = BagHash{};
    if (note.aggregate) {
      last_payload.add(*note.aggregate, +1);
      have_payload = true;
    } else if (note.complete) {
      last_payload.add(*note.complete, +1);
      have_payload = true;
    }
  }
  sink_ns += wall_ns() - t0;
}

std::vector<double> Tracer::durations_us(Layer layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer != layer) continue;
    std::uint64_t ns = s.end_ns - s.start_ns;
    if (layer == Layer::kExecute) ns -= std::min(ns, s.aux);
    out.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

double Tracer::total_us(Layer layer) const {
  double total = 0;
  for (const double us : durations_us(layer)) total += us;
  return total;
}

}  // namespace cqbench
