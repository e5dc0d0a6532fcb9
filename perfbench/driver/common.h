// Shared pieces of the benchmark driver: command-line options, sample
// statistics, the result report (human lines + the final JSON line), the
// forked result oracle, reply comparison and the driver's own spans.
#ifndef UOT_PERFBENCH_COMMON_H_
#define UOT_PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_session.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale factors and short phases: exercises every code path and
  /// every metric in a few seconds (the self-test runs this).
  bool smoke = false;
  /// Corrupts one expected result after the oracle ran, so the self-test
  /// can check that a wrong reply fails the run.
  bool inject_mismatch = false;
  /// Directory for the result file and the span file.
  std::string out_dir = ".bench_out";
  /// Provenance supplied by the wrapper script (the checkout may not be a
  /// git repository).
  std::string git_commit = "unknown";
  std::string src_digest = "unknown";
};

/// Parses argv; returns false (after printing why) on bad input.
bool ParseOptions(int argc, char** argv, Options* out);

/// Wall-clock seconds / milliseconds on the monotonic clock.
double NowSeconds();

// ---------------------------------------------------------------- samples

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);
/// Nearest-rank quantile (0 < q <= 1) of an unsorted sample.
double Quantile(std::vector<double> v, double q);

/// A tail percentile: the highest of {99.9, 99, 95, 90, 75, 50} not above
/// `wanted` that leaves at least ten samples beyond it.
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(const std::vector<double>& v, double wanted);
/// "p99 of 1234 samples, 12 beyond".
std::string TailNote(const Tail& tail);

/// Median and spread of a per-pass count, for counts that may vary with
/// thread interleaving.
struct Spread {
  double median = 0, min = 0, max = 0;
  size_t base = 0;
  bool exact() const { return min == max; }
};
Spread SpreadOf(const std::vector<double>& v);

// ----------------------------------------------------------------- report

/// Collects metrics and prints them. End-to-end metrics come from
/// untraced runs, per-layer metrics from the traced run; the final JSON
/// line carries the set that matches the run's --trace flag.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// An end-to-end metric of the benchmark: in the JSON line under
  /// --trace 0, a printed detail under --trace 1.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit, const std::string& note = "");
  /// A per-layer metric of the benchmark: in the JSON line under
  /// --trace 1, a printed detail otherwise.
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
  /// A figure outside the benchmark's metric lists (one that applies to
  /// this workload only): printed and written to the result file, never
  /// part of the JSON line.
  void Detail(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A per-pass count: printed as an exact count when every pass agrees,
  /// otherwise as median with its spread and base. `layer` makes it a
  /// per-layer metric, otherwise a detail.
  void Count(const std::string& name, const std::vector<double>& per_pass,
             const std::string& unit, bool layer);
  /// Free-form metadata, printed in the `meta` line and the result file.
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// A human-readable line (printed immediately).
  void Line(const std::string& text);

  void set_attempted(uint64_t n) { attempted_ = n; }
  void set_failed(uint64_t n) { failed_ = n; }
  void AddMismatch(const std::string& what);
  bool correct() const { return mismatches_ == 0; }

  /// Prints the metadata line, writes the result file and prints the
  /// final JSON line. Returns the process exit code.
  int Finish();

 private:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note, bool in_json);

  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json;
  };

  const Options& options_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> meta_;  // key, JSON value
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Machine description shared by every result: nproc, cache sizes, build.
void AddMachineMeta(Report* report);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

// ----------------------------------------------------------------- oracle

/// Runs `compute` in a forked child process and returns the strings it
/// produced, in order. The child's memory never counts toward this
/// process's peak RSS. Call before this process starts any thread.
/// Returns false if the child failed.
bool RunForked(const std::function<std::vector<std::string>()>& compute,
               std::vector<std::string>* out);

/// Runs `count` set-ups, each in its own forked child, and appends each
/// one's {generation seconds, set-up seconds} (what `set_up` returns) to
/// the vectors. The children's memory and threads never touch this
/// process, so repeating the set-up to time it leaves this process's peak
/// RSS alone. Call before this process starts any thread.
bool TimeSetUpsInChildren(int count,
                          const std::function<std::pair<double, double>()>& set_up,
                          std::vector<double>* generate_s,
                          std::vector<double>* setup_s);

/// True when two canonical result renderings (sorted CSV lines) agree:
/// identical, or identical except for numeric fields that differ by at
/// most a relative 1e-6 (floating-point aggregates merge in
/// scheduling-dependent order).
bool SameRows(const std::string& expected, const std::string& actual);

// ------------------------------------------------------------------ spans

/// The driver's own spans, recorded through obs::TraceSession as complete
/// events: `op` is the span kind (named in the exported trace) and
/// `worker` carries the request id, so the spans of one request share it.
enum SpanKind : int32_t {
  kSpanWorkload = 0,
  kSpanRequest,
  kSpanPlanBuild,
  kSpanParse,
  kSpanCompile,
  kSpanChoose,
  kSpanExecute,
  kSpanRoundTrip,
  kNumSpanKinds,
};
const char* SpanKindName(int kind);

class SpanRecorder {
 public:
  SpanRecorder();
  /// Records [start_ns, end_ns) of `kind` for request `request_id` on
  /// track `tid` (one track per client).
  void Span(SpanKind kind, int64_t start_ns, int64_t end_ns,
            int32_t request_id, uint32_t tid);
  /// Self time per span kind in ms: each span's duration minus the part
  /// covered by spans nested in it (same track, inside its interval).
  std::map<std::string, double> SelfMillis() const;
  bool Write(const std::string& path) const;

 private:
  uot::obs::TraceSession session_;
};

/// Monotonic nanoseconds (same clock as ExecutionStats timestamps).
int64_t Nanos();

/// Entry points of the workloads (tpch_workload.cc, serve_workload.cc).
int RunTpchWorkload(const Options& options, Report* report);
int RunServeWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // UOT_PERFBENCH_COMMON_H_
