#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {
namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

rusage usage(int who) {
  rusage ru{};
  (void)::getrusage(who, &ru);
  return ru;
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double children_cpu_s() {
  const rusage ru = usage(RUSAGE_CHILDREN);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mb() { return static_cast<double>(usage(RUSAGE_SELF).ru_maxrss) / 1024.0; }

double children_peak_rss_mb() {
  return static_cast<double>(usage(RUSAGE_CHILDREN).ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Metrics::set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  throw std::out_of_range("no metric " + name);
}

double Metrics::at(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("no metric " + name);
}

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
