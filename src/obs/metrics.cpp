#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ttp::obs {

MetricsRegistry::MetricsRegistry(const MetricsRegistry& o) { *this = o; }

MetricsRegistry& MetricsRegistry::operator=(const MetricsRegistry& o) {
  if (this == &o) return *this;
  std::scoped_lock lock(mu_, o.mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  for (const auto& [name, c] : o.counters_) {
    auto fresh = std::make_unique<Counter>();
    fresh->add(c->value());
    counters_.emplace(name, std::move(fresh));
  }
  for (const auto& [name, g] : o.gauges_) {
    auto fresh = std::make_unique<Gauge>();
    fresh->set(g->value());
    gauges_.emplace(name, std::move(fresh));
  }
  for (const auto& [name, h] : o.histograms_) {
    histograms_.emplace(name, std::make_unique<Histogram>(*h));
  }
  return *this;
}

MetricsRegistry::MetricsRegistry(MetricsRegistry&& o) noexcept {
  std::scoped_lock lock(o.mu_);
  counters_ = std::move(o.counters_);
  gauges_ = std::move(o.gauges_);
  histograms_ = std::move(o.histograms_);
}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& o) noexcept {
  if (this == &o) return *this;
  std::scoped_lock lock(mu_, o.mu_);
  counters_ = std::move(o.counters_);
  gauges_ = std::move(o.gauges_);
  histograms_ = std::move(o.histograms_);
  return *this;
}

template <typename T>
T& MetricsRegistry::intern(Map<T>& m, std::string_view name) {
  if (auto it = m.find(name); it != m.end()) return *it->second;
  auto [it, inserted] =
      m.emplace(std::string(name), std::make_unique<T>());
  (void)inserted;
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return intern(histograms_, name);
}

std::uint64_t MetricsRegistry::get(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::all()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::vector<std::pair<std::string, double>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsRegistry::visit_histograms(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  std::vector<std::pair<std::string, const Histogram*>> hs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hs.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) hs.emplace_back(name, h.get());
  }
  std::sort(hs.begin(), hs.end());
  for (const auto& [name, h] : hs) fn(name, *h);
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::print(std::ostream& os, std::string_view indent) const {
  // One merged stream, sorted by name across all three instrument kinds —
  // the dump (and therefore STATS/stats_text) is byte-stable across runs,
  // so smoke tests and operator diffs never chase map-iteration noise.
  std::vector<std::pair<std::string, std::string>> lines;
  for (const auto& [name, v] : all()) {
    lines.emplace_back(name, " = " + std::to_string(v));
  }
  for (const auto& [name, v] : gauges()) {
    std::ostringstream val;
    val << " = " << v;
    lines.emplace_back(name, val.str());
  }
  visit_histograms([&](const std::string& name, const Histogram& h) {
    std::ostringstream val;
    val << ": count=" << h.count() << " sum=" << h.sum();
    if (h.count() > 0) {
      val << " min=" << h.min() << " max=" << h.max();
      val << " buckets[";
      bool first = true;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const std::uint64_t n = h.bucket_count(b);
        if (n == 0) continue;
        if (!first) val << ' ';
        first = false;
        val << Histogram::bucket_lo(b) << "..=" << Histogram::bucket_hi(b)
            << ":" << n;
      }
      val << ']';
    }
    lines.emplace_back(name, val.str());
  });
  std::sort(lines.begin(), lines.end());
  for (const auto& [name, rest] : lines) {
    os << indent << name << rest << '\n';
  }
}

}  // namespace ttp::obs
