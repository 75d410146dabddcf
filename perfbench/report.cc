// Spans, exact quantiles, registry snapshots and the result JSON line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "obs/obs.h"
#include "perfbench.h"

namespace perfbench {

std::uint64_t SpanLog::Add(const char* name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint64_t parent,
                           std::uint64_t trace, int lane) {
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, trace, lane});
  return id;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace\":%llu}}",
                 first ? "" : ",", s.name, s.lane, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::map<std::string, double> SpanLog::SelfSecondsByName() const {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) covered += b - from;
        reach = std::max(reach, b);
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

Quantile ExactQuantile(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(out.n))), 1,
      out.n);
  out.value = samples[rank - 1];
  out.beyond = out.n - rank;
  return out;
}

RegistrySnapshot RegistrySnapshot::Take() {
  smiler::obs::Registry& reg = smiler::obs::Registry::Global();
  RegistrySnapshot snap;
  for (const std::string& name : reg.CounterNames()) {
    snap.counters[name] = static_cast<double>(reg.GetCounter(name).value());
  }
  for (const std::string& name : reg.GaugeNames()) {
    snap.gauges[name] = reg.GetGauge(name).value();
  }
  for (const std::string& name : reg.HistogramNames()) {
    const auto h = reg.GetHistogram(name).Snap();
    snap.hist_sums[name] = h.sum;
    snap.hist_counts[name] = static_cast<double>(h.count);
  }
  return snap;
}

namespace {
double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

void Subtract(const std::map<std::string, double>& start,
              std::map<std::string, double>* now) {
  for (auto& [name, v] : *now) v -= Lookup(start, name);
}
}  // namespace

RegistrySnapshot RegistrySnapshot::Since(const RegistrySnapshot& start) {
  RegistrySnapshot now = Take();
  Subtract(start.counters, &now.counters);
  Subtract(start.hist_sums, &now.hist_sums);
  Subtract(start.hist_counts, &now.hist_counts);
  return now;
}

double RegistrySnapshot::counter(const std::string& name) const {
  return Lookup(counters, name);
}
double RegistrySnapshot::gauge(const std::string& name) const {
  return Lookup(gauges, name);
}
double RegistrySnapshot::hist_sum(const std::string& name) const {
  return Lookup(hist_sums, name);
}
double RegistrySnapshot::hist_count(const std::string& name) const {
  return Lookup(hist_counts, name);
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

std::string MetricSet::ResultJson(bool correct, std::size_t attempted,
                                  std::size_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    char value[64];
    // Non-finite values are not JSON; they only arise from an empty
    // sample, which already marks the run incorrect.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : -1.0);
    out += std::string(first ? "" : ", ") + "\"" + e.name +
           "\": {\"value\": " + value + ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
