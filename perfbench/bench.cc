#include "bench.h"

#include <sched.h>
#include <time.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common/wire.h"
#include "plan/optimizer.h"
#include "server/protocol.h"
#include "sql/parser.h"

using namespace wake;

namespace perfbench {

double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

double MsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

size_t HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

size_t UsableWorkers() { return std::min<size_t>(HostCores(), 4); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Value of one "Key:   N" line of /proc/self/status (0 if absent).
double ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1);
    }
  }
  return 0.0;
}

void ResetPeakRssMark() { std::ofstream("/proc/self/clear_refs") << "5"; }

}  // namespace

RssWindows::RssWindows(std::chrono::milliseconds period) {
  malloc_trim(0);
  ResetPeakRssMark();
  if (period.count() == 0) return;
  thread_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      Mark();
      lock.lock();
    }
  });
}

RssWindows::~RssWindows() { Stop(); }

void RssWindows::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void RssWindows::Mark() {
  double peak_mb = ProcStatus("VmHWM") / 1024.0;
  ResetPeakRssMark();
  std::lock_guard<std::mutex> lock(mu_);
  peaks_mb_.push_back(peak_mb);
}

double RssWindows::MedianMb() {
  Stop();
  Mark();
  std::lock_guard<std::mutex> lock(mu_);
  return Median(peaks_mb_);
}

ThreadSampler::ThreadSampler()
    : thread_([this] {
        while (!stop_.load()) {
          size_t n = static_cast<size_t>(ProcStatus("Threads"));
          if (n > peak_.load()) peak_.store(n);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

// --- answer scoring ----------------------------------------------------------
//
// Kept here rather than shared with bench/bench_util.h, so the benchmark of
// record scores answers the same way however the figure benches change.

size_t KeyColumns(int q) {
  switch (q) {
    case 1: return 2;
    case 2: return 8;
    case 3: return 3;
    case 4: return 1;
    case 5: return 1;
    case 7: return 3;
    case 8: return 1;
    case 9: return 2;
    case 10: return 7;
    case 11: return 1;
    case 12: return 1;
    case 13: return 1;
    case 16: return 3;
    case 18: return 5;
    case 20: return 2;
    case 21: return 1;
    case 22: return 1;
    default: return 0;  // single-row aggregates
  }
}

namespace {

std::string RowKey(const DataFrame& df, size_t row, size_t key_cols) {
  std::string key;
  for (size_t c = 0; c < key_cols; ++c) {
    key += df.column(c).GetValue(row).ToString();
    key += '|';
  }
  return key;
}

/// 100 × (1 − multiset overlap of whole rows / the larger row count).
double RowSetErrorPercent(const DataFrame& truth, const DataFrame& got) {
  size_t larger = std::max(truth.num_rows(), got.num_rows());
  if (larger == 0) return 0.0;
  std::map<std::string, size_t> want;
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    ++want[RowKey(truth, r, truth.num_columns())];
  }
  size_t matched = 0;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    auto it = want.find(RowKey(got, r, got.num_columns()));
    if (it != want.end() && it->second > 0) {
      --it->second;
      ++matched;
    }
  }
  return 100.0 * (1.0 - static_cast<double>(matched) /
                            static_cast<double>(larger));
}

}  // namespace

double ErrorPercent(const DataFrame& truth, const DataFrame& got,
                    size_t key_cols) {
  std::map<std::string, size_t> truth_row;
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    truth_row[RowKey(truth, r, key_cols)] = r;
  }
  double total = 0;
  size_t n = 0;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    auto it = truth_row.find(RowKey(got, r, key_cols));
    if (it == truth_row.end()) continue;
    for (size_t c = key_cols; c < truth.num_columns(); ++c) {
      if (truth.column(c).type() == ValueType::kString) continue;
      if (truth.column(c).IsNull(it->second)) continue;
      double want = truth.column(c).DoubleAt(it->second);
      if (want == 0.0) continue;
      double have = got.column(c).IsNull(r) ? 0.0 : got.column(c).DoubleAt(r);
      total += std::fabs(have - want) / std::fabs(want);
      ++n;
    }
  }
  if (n == 0) return RowSetErrorPercent(truth, got);
  return 100.0 * total / static_cast<double>(n);
}

double Recall(const DataFrame& truth, const DataFrame& got, size_t key_cols) {
  if (truth.num_rows() == 0) return 1.0;
  std::map<std::string, bool> found;
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    found[RowKey(truth, r, key_cols)] = false;
  }
  for (size_t r = 0; r < got.num_rows(); ++r) {
    auto it = found.find(RowKey(got, r, key_cols));
    if (it != found.end()) it->second = true;
  }
  size_t hit = 0;
  for (const auto& kv : found) hit += kv.second ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(found.size());
}

bool SameAnswer(const DataFrame& want, const DataFrame& got) {
  return want.ApproxEquals(got, 0.0);
}

std::string WireBytes(const DataFrame& df) {
  wire::WireWriter w;
  protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

void StateScorer::OnState(const DataFrame& frame, bool is_final,
                          double at_ms) {
  ++t_.states;
  if (is_final) t_.final_ms = at_ms;
  if (frame.num_rows() == 0 && !is_final) return;
  double err = -1;
  if (!have_first_) {
    have_first_ = true;
    t_.ttfe_ms = at_ms;
    if (truth_ == nullptr) return;  // timing only
    err = ErrorPercent(*truth_, frame, key_cols_);
    t_.first_err_pct = err;
  }
  if (truth_ == nullptr) return;
  if (!have_1pct_) {
    if (err < 0) err = ErrorPercent(*truth_, frame, key_cols_);
    if (err <= 1.0 && Recall(*truth_, frame, key_cols_) >= 1.0) {
      have_1pct_ = true;
      t_.tt1pct_ms = at_ms;
    }
  }
  if (is_final && !have_1pct_) t_.tt1pct_ms = at_ms;
}

// --- traced engine runs and the layer split ---------------------------------

EngineRunResult RunEngine(const Catalog& catalog, WorkerPool* pool,
                          const PlanNodePtr& plan, bool trace,
                          const DataFrame* truth, size_t key_cols) {
  WakeOptions options;
  options.trace = trace;
  options.pool = pool;
  if (pool == nullptr) options.workers = 1;
  WakeEngine engine(&catalog, options);
  StateScorer scorer(truth, key_cols);
  EngineRunResult out;
  auto t0 = Clock::now();
  std::unique_ptr<EngineRun> run = engine.Start(plan);
  run->Collect([&](const OlaState& s) {
    scorer.OnState(*s.frame, s.is_final, MsSince(t0));
    if (s.is_final) {
      out.wall_s = s.elapsed_seconds;
      out.final_frame = s.frame;
    }
  });
  out.timing = scorer.timing();
  out.spans = run->trace_spans();
  return out;
}

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void LayerSplit::Add(const std::vector<TraceSpan>& spans, double wall_s) {
  ++queries;
  std::vector<std::pair<double, double>> covered;
  for (const TraceSpan& s : spans) {
    double ms = 1000.0 * (s.end_seconds - s.start_seconds);
    const std::string& n = s.node;
    if (EndsWith(n, ":finish")) {
      finish_ms += ms;
    } else if (StartsWith(n, "read(")) {
      read_ms += ms;
    } else if (n == "filter" || n == "map" || n == "derive") {
      filter_map_ms += ms;
    } else if (n.find("join") != std::string::npos) {
      join_ms += ms;
    } else if (n.find("agg") != std::string::npos) {
      agg_ms += ms;
    } else if (n.find("sort") != std::string::npos) {
      sort_ms += ms;
    }
    covered.emplace_back(std::max(0.0, s.start_seconds),
                         std::min(wall_s, s.end_seconds));
  }
  // Wall time outside the union of every node's busy intervals.
  std::sort(covered.begin(), covered.end());
  double busy = 0, end = 0;
  for (const auto& [b, e] : covered) {
    if (e <= std::max(b, end)) continue;
    busy += e - std::max(b, end);
    end = e;
  }
  idle_ms += 1000.0 * std::max(0.0, wall_s - busy);
}

void LayerProbe::TimePrepare(const std::string& sql, const Catalog& catalog) {
  auto t0 = Clock::now();
  Plan plan = sql::Parse(sql);
  auto t1 = Clock::now();
  Plan optimized = Optimize(plan, catalog);
  auto t2 = Clock::now();
  parse_us.push_back(1000.0 * MsBetween(t0, t1));
  optimize_us.push_back(1000.0 * MsBetween(t1, t2));
}

void LayerProbe::TimeDecode(const PlanNodePtr& plan, const Catalog& catalog) {
  if (plan->op == PlanOp::kScan) {
    TablePtr table = catalog.GetPtr(plan->table);  // snapshots live tables
    auto t0 = Clock::now();
    for (size_t i = 0; i < table->num_chunks(); ++i) {
      DataFramePtr chunk = table->ReadChunk(i, plan->columns, plan->scan_filter);
      if (chunk != nullptr) decode_rows += static_cast<double>(chunk->num_rows());
    }
    decode_s += MsSince(t0) / 1000.0;
  }
  for (const PlanNodePtr& in : plan->inputs) TimeDecode(in, catalog);
}

void AddLayerMetrics(const LayerSplit& split, const LayerProbe& probe,
                     Report* report) {
  double q = static_cast<double>(std::max<size_t>(1, split.queries));
  report->Add("sql.parse_us", Median(probe.parse_us), "us");
  report->Add("plan.optimize_us", Median(probe.optimize_us), "us");
  report->Add("storage.read_busy_ms", split.read_ms / q, "ms");
  report->Add("storage.decode_mrows_per_s",
              probe.decode_s > 0 ? probe.decode_rows / probe.decode_s / 1e6 : 0,
              "Mrows/s");
  report->Add("frame.filter_map_busy_ms", split.filter_map_ms / q, "ms");
  report->Add("core.join_busy_ms", split.join_ms / q, "ms");
  report->Add("core.agg_busy_ms", split.agg_ms / q, "ms");
  report->Add("core.sort_busy_ms", split.sort_ms / q, "ms");
  report->Add("core.finish_ms", split.finish_ms / q, "ms");
  report->Add("exec.idle_ms", split.idle_ms / q, "ms");
}

bool WriteTrace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<TraceSpan>>>& runs) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (size_t pid = 0; pid < runs.size(); ++pid) {
    std::map<std::string, size_t> tids;
    for (const TraceSpan& s : runs[pid].second) {
      size_t tid = tids.emplace(s.node, tids.size()).first->second;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":%zu,\"tid\":%zu,\"ts\":%.1f,\"dur\":%.1f}",
                    first ? "" : ",", s.node.c_str(), runs[pid].first.c_str(),
                    pid, tid, 1e6 * s.start_seconds,
                    1e6 * (s.end_seconds - s.start_seconds));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

// --- entry point -------------------------------------------------------------

namespace {

using perfbench::Report;

/// Every per-layer metric, in BENCHMARK.json order; a workload that does
/// not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"sql.parse_us", "us"},
      {"plan.optimize_us", "us"},
      {"storage.read_busy_ms", "ms"},
      {"storage.decode_mrows_per_s", "Mrows/s"},
      {"storage.skip_ratio", "ratio"},
      {"storage.blocks_read", "count"},
      {"frame.filter_map_busy_ms", "ms"},
      {"core.join_busy_ms", "ms"},
      {"core.agg_busy_ms", "ms"},
      {"core.sort_busy_ms", "ms"},
      {"core.finish_ms", "ms"},
      {"exec.idle_ms", "ms"},
      {"exec.states_per_query", "count"},
      {"exec.peak_threads", "count"},
      {"common.cores_busy", "cores"},
      {"server.snapshots_per_query", "count"},
      {"server.wire_bytes_per_query", "B"},
      {"server.codec_ms_per_query", "ms"},
      {"client.remote_overhead_ms", "ms"},
      {"ingest.staleness_ms_p50", "ms"},
      {"ingest.staleness_ms_p95", "ms"},
      {"ingest.append_us_p50", "us"},
      {"ingest.append_us_p95", "us"},
      {"ingest.refresh_ms_p50", "ms"},
      {"ingest.refresh_ms_p95", "ms"},
      {"ingest.rows_per_refresh", "count"},
      {"ingest.tablets_flushed", "count"},
      {"ingest.flush_failures", "count"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

/// JSON has no infinity: a +inf summary (failed operations) prints as
/// 1e300, slower than any real time.
void PrintMetrics(const std::vector<Report::Metric>& metrics) {
  bool first = true;
  for (const auto& m : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 1e300,
                m.unit.c_str());
    first = false;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: wake_perfbench --workload tpch-ola|serve-mix|"
               "live-ingest --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc % 2 == 0) return Usage();  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) return Usage();
  if (args.trace_dir.empty()) args.trace_dir = args.work_dir;

  Report report;
  try {
    if (args.workload == "tpch-ola") {
      report = perfbench::RunTpchOla(args);
    } else if (args.workload == "serve-mix") {
      report = perfbench::RunServeMix(args);
    } else if (args.workload == "live-ingest") {
      report = perfbench::RunLiveIngest(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  if (args.trace) {
    std::vector<Report::Metric> ordered;
    for (const auto& [name, unit] : LayerMetricNames()) {
      double value = 0;
      for (const auto& m : report.metrics) {
        if (m.name == name) value = m.value;
      }
      ordered.push_back({name, value, unit});
    }
    report.metrics = std::move(ordered);
  }

  // Detail line: host, sizing, and the workload-specific metric names.
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"host_cores\":%zu,\"details\":{",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              perfbench::HostCores());
  PrintMetrics(report.details);
  std::printf("}}\n");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics(report.metrics);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
