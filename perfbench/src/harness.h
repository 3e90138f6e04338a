// Shared plumbing of the end-to-end benchmark: clocks, exact sample
// statistics, the span recorder behind traced runs, operation accounting,
// and the metric report printed as the run's last line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double NowSeconds();

/// Exact quantile of `samples` (linear interpolation between order
/// statistics, as numpy's default); `q` in [0, 1]. 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);
/// Arithmetic mean (0 for an empty set).
double MeanOf(const std::vector<double>& samples);

/// Window statistics: the span [t0, t1) is cut into `windows` equal time
/// windows and each sample (at time `at[i]`, value `value[i]`) falls in
/// one. A run reports the median over windows, so a burst of host noise in
/// one window moves the figure less than it moves a whole-run statistic.
/// Per window: the exact `q`-quantile of the values in it.
std::vector<double> WindowQuantiles(const std::vector<double>& at,
                                    const std::vector<double>& value,
                                    double t0, double t1, size_t windows,
                                    double q);
/// Per window: the summed values over the window's length (a rate).
std::vector<double> WindowRates(const std::vector<double>& at,
                                const std::vector<double>& value, double t0,
                                double t1, size_t windows);

/// Pins the calling thread to the `k`-th (modulo their count) of the CPUs
/// the process was allowed at start. A single busy thread that the
/// scheduler leaves on one vCPU runs at that vCPU's speed for the whole
/// run, and on a shared host the vCPUs' speeds differ by up to a third
/// and change over minutes; rotating the thread over every CPU in equal
/// slices lets each figure average over them instead.
void PinToCpu(size_t k);
/// Lets the calling thread run on every CPU the process was allowed at
/// start again (threads it creates afterwards inherit that mask).
void Unpin();

/// Derives an independent 64-bit seed for stream `stream` of run seed
/// `seed` (splitmix64 over the pair), so every input generator of a
/// workload draws from its own reproducible stream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// ---- Tracing ---------------------------------------------------------------

/// One recorded span: a call into a layer, timed from the benchmark's own
/// code. `parent` indexes the enclosing span of the same log (-1 = root).
struct SpanRecord {
  const char* name = nullptr;  ///< string literal, lives for the process
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Per-thread span buffer: spans are appended in memory only and written
/// out when the run ends. A null log (tracing off) records nothing.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  int32_t Begin(const char* name);
  void End(int32_t id);

  int thread() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int thread_;
  int32_t open_ = -1;  ///< innermost open span
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null.
class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Owns the per-thread logs of one run and aggregates them by span name.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh log for one thread, or null when tracing is off.
  SpanLog* NewLog();

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self times (microseconds): duration minus the direct children.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  /// Writes every span as JSON (name, start/end in microseconds from the
  /// first span, parent id, thread) to `path`. Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---- Accounting and report ------------------------------------------------

/// Attempted / succeeded / failed counts of one operation kind. Failures
/// are split by cause: rejected by the engine, unroutable, or threw.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t rejected = 0;
  uint64_t unroutable = 0;
  uint64_t threw = 0;
  uint64_t failed() const { return rejected + unroutable + threw; }
  void Merge(const OpCount& o);
};

/// Everything a workload run hands back to main.
struct RunResult {
  /// Metric name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Operation kind -> counts ("scans", "batches", "ingests", ...).
  std::map<std::string, OpCount> ops;
  /// Extra numbers for the accounting line (sample counts, p99.9, rates).
  std::vector<std::pair<std::string, double>> details;
  /// Failed correctness checks (empty = correct).
  std::vector<std::string> check_failures;

  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value);
  /// Records a failed check unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what);
};

/// Formats `v` with all its significant digits (JSON number).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
