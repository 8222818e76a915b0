// Shared plumbing of the perfbench driver: arguments, the result report,
// timing and percentile helpers, process probes (cores, CPU time, RSS,
// threads), answer scoring, and the node-span layer split.
//
// The driver only calls the engine's public API (wake::Db, Server/Client,
// LiveTable/Subscription, WakeEngine with WakeOptions::trace); everything
// it measures is timed from outside those calls.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "frame/data_frame.h"
#include "plan/plan.h"
#include "storage/partitioned_table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0);
double MsBetween(Clock::time_point t0, Clock::time_point t1);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch data (wakeblock, spill) lives below it
  std::string trace_dir;  // traced runs write their spans here
};

/// What one run reports: the contract line plus free-form detail.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<Metric> details;  // workload-specific names, earlier line

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  /// Records one operation; a failed one also makes the run incorrect.
  void Count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

Report RunTpchOla(const Args& args);
Report RunServeMix(const Args& args);
Report RunLiveIngest(const Args& args);

// --- statistics ------------------------------------------------------------

double Mean(const std::vector<double>& v);  // 0 when empty
double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0,1]); +inf samples (failed operations)
/// sort above every success.
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);

// --- host and process probes -------------------------------------------------

/// CPUs in this process's affinity mask (sched_getaffinity).
size_t HostCores();
/// Workers / client connections: the usable cores, at most 4.
size_t UsableWorkers();
double ProcessCpuSeconds();
/// Peak RSS per window. Building one hands freed set-up memory back
/// (malloc_trim) and resets the kernel's peak mark (VmHWM, via
/// clear_refs); every Mark() closes a window by reading and resetting it.
/// The median window peak is robust to one unlucky overlap of heavy
/// queries, where a whole-run peak is not.
class RssWindows {
 public:
  /// A non-zero `period` marks from a background thread at that pace.
  explicit RssWindows(std::chrono::milliseconds period = {});
  ~RssWindows();
  RssWindows(const RssWindows&) = delete;
  RssWindows& operator=(const RssWindows&) = delete;
  void Mark();
  /// Stops the background marks, closes the open window, and returns
  /// the median window peak.
  double MedianMb();

 private:
  void Stop();
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> peaks_mb_;
  std::thread thread_;
};

/// Samples /proc/self/status "Threads:" every 2 ms while alive.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  size_t peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread thread_;
};

/// Runs `setup` `times` times and returns the median wall seconds; the
/// product of the last call is what the run uses.
template <typename F>
double TimedSetups(int times, F&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    auto t0 = Clock::now();
    setup();
    secs.push_back(MsSince(t0) / 1000.0);
  }
  return Median(secs);
}

// --- answer scoring ----------------------------------------------------------

/// Number of leading group-key columns in TPC-H query q's result.
size_t KeyColumns(int q);
/// Mean relative error (%) of `got` vs `truth` over the numeric columns
/// past `key_cols`, rows matched by key. A result with no such column
/// (Q2, Q20) is scored by row-set agreement instead, so an exact answer
/// always scores 0.
double ErrorPercent(const wake::DataFrame& truth, const wake::DataFrame& got,
                    size_t key_cols);
/// Fraction of truth keys present in `got`.
double Recall(const wake::DataFrame& truth, const wake::DataFrame& got,
              size_t key_cols);
/// Byte-identical answer (tolerance 0.0), as the engine's tests check.
bool SameAnswer(const wake::DataFrame& want, const wake::DataFrame& got);
/// The frame's wire encoding (doubles as raw bit patterns).
std::string WireBytes(const wake::DataFrame& df);

// --- one OLA query, driven and timed from outside ------------------------

struct OlaTiming {
  double ttfe_ms = 0;    // first non-empty state
  double tt1pct_ms = 0;  // first state within 1% error and full recall
  double final_ms = 0;
  double first_err_pct = 0;
  size_t states = 0;
};

/// Scores a stream of states against `truth` (null = time them only).
class StateScorer {
 public:
  StateScorer(const wake::DataFrame* truth, size_t key_cols)
      : truth_(truth), key_cols_(key_cols) {}
  void OnState(const wake::DataFrame& frame, bool is_final, double at_ms);
  OlaTiming timing() const { return t_; }

 private:
  const wake::DataFrame* truth_;
  size_t key_cols_;
  bool have_first_ = false;
  bool have_1pct_ = false;
  OlaTiming t_;
};

// --- traced engine runs and the layer split ---------------------------------

struct EngineRunResult {
  OlaTiming timing;
  wake::DataFramePtr final_frame;
  std::vector<wake::TraceSpan> spans;
  double wall_s = 0;  // engine clock at the final state
};

/// Runs `plan` on a WakeEngine sharing `pool`, tracing node spans when
/// asked; `truth` may be null.
EngineRunResult RunEngine(const wake::Catalog& catalog, wake::WorkerPool* pool,
                          const wake::PlanNodePtr& plan, bool trace,
                          const wake::DataFrame* truth, size_t key_cols);

/// Node busy time per layer, summed over queries (milliseconds).
struct LayerSplit {
  double read_ms = 0;
  double filter_map_ms = 0;
  double join_ms = 0;
  double agg_ms = 0;
  double sort_ms = 0;
  double finish_ms = 0;
  double idle_ms = 0;  // query wall time no span covers
  size_t queries = 0;
  void Add(const std::vector<wake::TraceSpan>& spans, double wall_s);
};

/// Per-layer counters gathered outside the engine for one workload.
struct LayerProbe {
  std::vector<double> parse_us;
  std::vector<double> optimize_us;
  double decode_rows = 0;
  double decode_s = 0;
  /// Times sql::Parse and Optimize of `sql` against `catalog`.
  void TimePrepare(const std::string& sql, const wake::Catalog& catalog);
  /// Times PartitionedTable::ReadChunk over every chunk each scan of
  /// `plan` reads, with the plan's columns and scan_filter.
  void TimeDecode(const wake::PlanNodePtr& plan, const wake::Catalog& catalog);
};

/// Appends the layer metrics every workload reports (zero where a layer
/// is not exercised) to `report`.
void AddLayerMetrics(const LayerSplit& split, const LayerProbe& probe,
                     Report* report);

/// Writes `runs` (one span list per traced query) as Chrome trace-event
/// JSON; returns false on I/O failure.
bool WriteTrace(const std::string& path,
                const std::vector<std::pair<std::string,
                                            std::vector<wake::TraceSpan>>>&
                    runs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
