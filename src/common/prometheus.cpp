#include "common/prometheus.hpp"

#include <bit>
#include <cctype>

namespace cq::common::obs {

namespace {

constexpr const char* kPrefix = "cq_";

bool name_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
}

}  // namespace

std::string PromWriter::sanitize_name(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  if (!raw.empty() && std::isdigit(static_cast<unsigned char>(raw.front())) != 0) {
    out += '_';
  }
  for (const char c : raw) out += name_char(c) ? c : '_';
  return out;
}

std::string PromWriter::escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

PromWriter::Family& PromWriter::family(const std::string& name, const char* type) {
  Family& fam = families_[name];
  if (fam.type.empty()) fam.type = type;
  return fam;
}

void PromWriter::append_sample(Family& fam, const std::string& name,
                               const Labels& labels, const std::string& value) {
  std::string line = name;
  if (!labels.empty()) {
    line += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) line += ',';
      first = false;
      line += sanitize_name(k);
      line += "=\"";
      line += escape_label_value(v);
      line += '"';
    }
    line += '}';
  }
  line += ' ';
  line += value;
  fam.lines.push_back(std::move(line));
}

void PromWriter::counter(const std::string& name, std::int64_t value,
                         const Labels& labels) {
  const std::string fam_name = kPrefix + sanitize_name(name) + "_total";
  append_sample(family(fam_name, "counter"), fam_name, labels, std::to_string(value));
}

void PromWriter::gauge(const std::string& name, std::int64_t value,
                       const Labels& labels) {
  const std::string fam_name = kPrefix + sanitize_name(name);
  append_sample(family(fam_name, "gauge"), fam_name, labels, std::to_string(value));
}

void PromWriter::histogram(const std::string& name, const Histogram& h,
                           const Labels& labels) {
  const std::string fam_name = kPrefix + sanitize_name(name);
  Family& fam = family(fam_name, "histogram");

  // Cumulative buckets at the log2 upper bounds. Bucket b of the source
  // histogram holds values with bit_width == b, i.e. [2^(b-1), 2^b - 1],
  // so the cumulative count at le = 2^b - 1 is the sum of buckets 0..b.
  std::uint64_t cumulative = 0;
  const std::size_t top =
      h.count() == 0 ? 0 : static_cast<std::size_t>(std::bit_width(h.max()));
  for (std::size_t b = 0; b <= top && b < Histogram::kBuckets; ++b) {
    cumulative += h.bucket(b);
    const std::uint64_t le = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    Labels with_le = labels;
    with_le.emplace_back("le", std::to_string(le));
    append_sample(fam, fam_name + "_bucket", with_le, std::to_string(cumulative));
  }
  Labels inf = labels;
  inf.emplace_back("le", "+Inf");
  append_sample(fam, fam_name + "_bucket", inf, std::to_string(h.count()));
  append_sample(fam, fam_name + "_sum", labels, std::to_string(h.sum()));
  append_sample(fam, fam_name + "_count", labels, std::to_string(h.count()));
}

std::string PromWriter::str() const {
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += fam.type;
    out += '\n';
    for (const std::string& line : fam.lines) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

std::string render_prometheus(
    const Metrics& counters, const std::vector<GaugeSample>& gauges,
    const std::map<std::string, Histogram>& histograms,
    const std::vector<std::function<void(PromWriter&)>>& sections) {
  PromWriter w;
  for (const auto& [name, value] : counters.all()) w.counter(name, value);
  for (const GaugeSample& g : gauges) {
    // Monotonic families kept in the gauge map (dropped totals, lane busy
    // time) render as counters so rate() works on them.
    if (gauge_is_counter(g.name)) {
      w.counter(g.name, g.value, g.labels);
    } else {
      w.gauge(g.name, g.value, g.labels);
    }
  }
  for (const auto& [name, h] : histograms) w.histogram(name, h);
  for (const auto& section : sections) section(w);
  return w.str();
}

namespace {

/// The lock-contention profiler's cq_lock_* families, one row per named
/// site: acquisition/contention counters plus wait- and hold-time
/// histograms.
void write_lockprof(PromWriter& w) {
  const std::size_t sites = lockprof::site_count();
  for (std::size_t i = 0; i < sites; ++i) {
    const lockprof::Site& s = lockprof::site(i);
    const char* name = s.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    const Labels labels{{"site", name}};
    w.counter("lock_acquisitions",
              static_cast<std::int64_t>(s.acquisitions.load(std::memory_order_relaxed)),
              labels);
    w.counter("lock_contended",
              static_cast<std::int64_t>(s.contended.load(std::memory_order_relaxed)),
              labels);
    w.histogram("lock_wait_us", s.wait_us, labels);
    w.histogram("lock_hold_us", s.hold_us, labels);
  }
}

}  // namespace

std::string render_prometheus(
    const Metrics& counters, Registry& registry,
    const std::vector<std::function<void(PromWriter&)>>& sections) {
  refresh_registry_gauges();
  std::vector<std::function<void(PromWriter&)>> all = sections;
  all.emplace_back([](PromWriter& w) { write_lockprof(w); });
  return render_prometheus(counters, registry.gauge_snapshot(),
                           registry.histogram_snapshot(), all);
}

}  // namespace cq::common::obs
