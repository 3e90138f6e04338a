#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The CPUs the process was allowed, read on the first call: PinToCpu and
/// Unpin make that call before they change any thread's mask.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

void PinToCpu(size_t k) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void Unpin() {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double Sum(const std::vector<double>& samples) {
  double s = 0.0;
  for (double v : samples) s += v;
  return s;
}

double MeanOf(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Sum(samples) / double(samples.size());
}

namespace {

std::vector<std::vector<double>> SplitWindows(const std::vector<double>& at,
                                              const std::vector<double>& value,
                                              double t0, double t1,
                                              size_t windows) {
  std::vector<std::vector<double>> split(windows);
  const double width = (t1 - t0) / double(windows);
  for (size_t i = 0; i < std::min(at.size(), value.size()); ++i) {
    if (at[i] < t0 || at[i] >= t1) continue;
    const size_t w = std::min(windows - 1, size_t((at[i] - t0) / width));
    split[w].push_back(value[i]);
  }
  return split;
}

}  // namespace

std::vector<double> WindowQuantiles(const std::vector<double>& at,
                                    const std::vector<double>& value,
                                    double t0, double t1, size_t windows,
                                    double q) {
  std::vector<double> out;
  for (const std::vector<double>& w : SplitWindows(at, value, t0, t1, windows)) {
    out.push_back(Quantile(w, q));
  }
  return out;
}

std::vector<double> WindowRates(const std::vector<double>& at,
                                const std::vector<double>& value, double t0,
                                double t1, size_t windows) {
  std::vector<double> out;
  const double width = (t1 - t0) / double(windows);
  for (const std::vector<double>& w : SplitWindows(at, value, t0, t1, windows)) {
    out.push_back(Sum(w) / width);
  }
  return out;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int32_t SpanLog::Begin(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = open_;
  r.start_ns = NowNs();
  spans_.push_back(r);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_ = spans_[static_cast<size_t>(id)].parent;
}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size())));
  return logs_.back().get();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const SpanRecord& s : log->spans()) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    const std::vector<SpanRecord>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (name == spans[i].name) {
        out.push_back((spans[i].end_ns - spans[i].start_ns - child_ns[i]) *
                      1e-3);
      }
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& log : logs_) {
    for (const SpanRecord& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  bool first = true;
  for (const auto& log : logs_) {
    const std::vector<SpanRecord>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << (first ? "\n" : ",\n") << "{\"id\":" << i
          << ",\"thread\":" << log->thread() << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << JsonNumber((s.start_ns - origin) * 1e-3)
          << ",\"end_us\":" << JsonNumber((s.end_ns - origin) * 1e-3)
          << ",\"parent\":" << s.parent << "}";
      first = false;
    }
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

void OpCount::Merge(const OpCount& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  rejected += o.rejected;
  unroutable += o.unroutable;
  threw += o.threw;
}

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void RunResult::Detail(const std::string& name, double value) {
  details.push_back({name, value});
}

bool RunResult::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
  return ok;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
