// Measurement plumbing shared by the benchmark's workloads: command
// line, clocks, latency logs, per-operation counts, metric sinks, the
// in-memory span recorder used by traced runs, and process-level gauges
// (peak RSS, per-thread allocation counters).
//
// Nothing here reaches into the program under test; the workloads time
// calls into the program's public functions and record what they see.
#ifndef QPBENCH_HARNESS_H_
#define QPBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qpbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long correctness pass: tiny windows and warm-up.
  bool smoke = false;
  /// Self-test hook: corrupt one observed answer before it is checked
  /// ("quote-price", "cell-write" or "sale-tally"); the run must fail.
  std::string inject;
  /// Directory (inside the checkout) for checkpoints, journals and
  /// trace files.
  std::string out_dir = ".bench_out";
  /// Build metadata passed in by the launcher.
  std::string build_type = "unknown";
  std::string commit = "unknown";
};

/// Parses "--key value" pairs; unknown keys or missing values fail.
bool ParseArgs(int argc, char** argv, Args* out, std::string* error);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-waits (with a coarse sleep first) until `deadline_ns`, so an
/// open-loop generator sends on time instead of at the mercy of timer
/// slack.
void WaitUntil(int64_t deadline_ns);

/// Nearest-rank percentile of an unsorted sample (copied and sorted).
double Percentile(std::vector<double> values, double p);

/// Attempted / failed count of one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Operation counts keyed by type, and the run's correctness verdict.
class Ledger {
 public:
  void Attempt(const std::string& op, uint64_t n = 1);
  void Fail(const std::string& op, uint64_t n = 1);
  /// Records a failed correctness check (the run is then incorrect).
  void CheckFailed(const std::string& what);
  bool correct() const;
  uint64_t attempted() const;
  uint64_t failed() const;
  std::map<std::string, OpCount> counts() const;
  std::vector<std::string> check_failures() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpCount> counts_;
  std::vector<std::string> check_failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics a run reports, in insertion order. `headline` metrics go into
/// the last-line JSON; the rest are printed as reference figures.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Reference(const std::string& name, double value,
                 const std::string& unit);
  const std::vector<Metric>& headline() const { return headline_; }
  const std::vector<Metric>& reference() const { return reference_; }

 private:
  std::vector<Metric> headline_;
  std::vector<Metric> reference_;
};

/// One recorded span: a timed call into one layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // operation the span belongs to
  std::string name;     // "<layer>.<what>", e.g. "rpc.quote"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store for traced runs. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }
  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }
  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Record(const std::string& name, uint64_t op, uint64_t parent,
                  int64_t start_ns, int64_t end_ns, uint64_t id = 0);
  std::vector<Span> spans() const;

  /// Writes spans as JSON lines plus the per-layer self-time table
  /// (tab-separated) into `dir`; returns the table as text.
  std::string WriteOut(const std::string& dir,
                       const std::string& workload) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer self time: each span's duration minus the part of it that
/// its child spans cover, summed by layer (the name's prefix before the
/// first '.').
struct LayerSelfTime {
  std::string layer;
  uint64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerSelfTime> SelfTimeByLayer(const std::vector<Span>& spans);

/// Peak resident set of this process, in MB (getrusage).
double PeakRssMb();

/// Heap accounting from the benchmark's own operator new: bytes the
/// calling thread allocated since it started.
uint64_t ThreadAllocBytes();

/// Logs a phase marker with the seconds since process start to stderr,
/// so a run that overstays its budget shows where it was.
void Phase(const std::string& name);

/// Escapes a string for a JSON literal.
std::string JsonEscape(const std::string& s);

}  // namespace qpbench

#endif  // QPBENCH_HARNESS_H_
