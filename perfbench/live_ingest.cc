// live-ingest: lineitem (SF 0.1, 12 partitions in seeded order) feeds a
// spill-backed LiveTable. Set-up loads the first 8 partitions whole and
// seals them; during the run one writer appends the rest in 2048-row
// batches on a fixed open-loop schedule spread over the run, one thread
// refreshes the standing Q1/Q6 subscriptions as soon as rows arrive, and
// one thread runs ad-hoc Q6 over the same live table back to back,
// alternating kOla and kExact. At the end the standing answers must be
// wire-byte-identical to a cold kExact re-query.
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "api/db.h"
#include "bench.h"
#include "ingest/live_table.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/queries_sql.h"

using namespace wake;

namespace perfbench {

namespace {

constexpr double kScaleFactor = 0.1;
constexpr size_t kPartitions = 12;
constexpr size_t kBatchRows = 2048;
// Partitions loaded (whole, then sealed) at set-up; the rest stream in.
constexpr size_t kPreloaded = 8;

struct Live {
  std::string spill_dir;
  std::vector<DataFrame> batches;   // in arrival order
  std::vector<uint64_t> batch_end;  // rows appended once batch k is in
  std::shared_ptr<LiveTable> table;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Db> db;
  std::unique_ptr<Subscription> q1, q6;
  std::unique_ptr<PreparedQuery> adhoc;  // Q6 over the live table

  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  ~Live() { Teardown(); }
  void Teardown() {
    adhoc.reset();
    q1.reset();
    q6.reset();
    db.reset();
    catalog.reset();
    table.reset();
    batches.clear();
    batch_end.clear();
    if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
  }
};

void Setup(uint64_t seed, size_t workers, Live* s) {
  s->Teardown();
  tpch::DbgenConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.partitions = kPartitions;
  cfg.seed = seed;
  PartitionedTable base = tpch::GenerateTable(cfg, "lineitem").ShufflePartitions(seed);
  LiveTableOptions options;
  options.spill_dir = s->spill_dir;
  s->table = std::make_shared<LiveTable>("lineitem", base.schema(), options);
  for (size_t p = 0; p < kPreloaded; ++p) s->table->Append(*base.partition(p));
  s->table->SealHot();
  uint64_t rows = s->table->stats().rows_appended;
  for (size_t p = kPreloaded; p < base.num_partitions(); ++p) {
    const DataFrame& part = *base.partition(p);
    for (size_t begin = 0; begin < part.num_rows(); begin += kBatchRows) {
      s->batches.push_back(part.Slice(begin, std::min(begin + kBatchRows, part.num_rows())));
      rows += s->batches.back().num_rows();
      s->batch_end.push_back(rows);
    }
  }
  s->catalog = std::make_unique<Catalog>();
  s->catalog->AddDynamic(s->table);
  DbOptions db_options;
  db_options.workers = workers;
  s->db = std::make_unique<Db>(s->catalog.get(), db_options);
  s->q1 = s->db->Subscribe(tpch::Query(1));
  s->q6 = s->db->Subscribe(tpch::Query(6));
  s->q1->Refresh();  // fold the preloaded tablets: later refreshes are deltas
  s->q6->Refresh();
  s->adhoc = std::make_unique<PreparedQuery>(s->db->Prepare(tpch::QuerySql(6)));
}

struct AdhocStats {
  std::vector<double> ttfe, tt1, ola_ms, exact_ms, first_err;
  std::vector<double> plain_ms, traced_ms, states;  // traced runs only
  LayerSplit split;
  std::vector<std::pair<std::string, std::vector<TraceSpan>>> spans;
};

/// One ad-hoc OLA Q6 through the Db; estimates are scored against the
/// run's own final answer (the exact result over the snapshot it read).
void AdhocOla(const Live& s, AdhocStats* out) {
  std::vector<std::pair<double, DataFramePtr>> states;
  auto t0 = Clock::now();
  QueryHandle h = s.adhoc->Run();
  while (auto state = h.Next()) states.emplace_back(MsSince(t0), state->frame);
  DataFrame final_frame = h.Final();
  StateScorer scorer(&final_frame, KeyColumns(6));
  for (size_t i = 0; i < states.size(); ++i) {
    scorer.OnState(*states[i].second, i + 1 == states.size(), states[i].first);
  }
  OlaTiming t = scorer.timing();
  out->ttfe.push_back(t.ttfe_ms);
  out->tt1.push_back(t.tt1pct_ms);
  out->ola_ms.push_back(t.final_ms);
  out->first_err.push_back(t.first_err_pct);
}

void AdhocExact(const Live& s, AdhocStats* out) {
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  auto t0 = Clock::now();
  s.adhoc->Execute(exact);
  out->exact_ms.push_back(MsSince(t0));
}

/// Traced pair: the same plan untraced and traced on a WakeEngine, in
/// alternating order so table growth between the two biases neither.
void AdhocTraced(const Live& s, size_t i, AdhocStats* out) {
  const PlanNodePtr& plan = s.adhoc->plan().node();
  for (int k = 0; k < 2; ++k) {
    bool trace = (k == 0) == (i % 2 == 0);
    EngineRunResult r = RunEngine(*s.catalog, s.db->pool(), plan, trace, nullptr, 0);
    if (!trace) {
      out->plain_ms.push_back(r.timing.final_ms);
      continue;
    }
    out->traced_ms.push_back(r.timing.final_ms);
    out->states.push_back(static_cast<double>(r.timing.states));
    out->split.Add(r.spans, r.wall_s);
    if (out->spans.size() < 16) {
      out->spans.emplace_back("q6-" + std::to_string(i), std::move(r.spans));
    }
  }
}

}  // namespace

Report RunLiveIngest(const Args& args) {
  size_t workers = UsableWorkers();
  Live s;
  s.spill_dir = args.work_dir + "/live-ingest-" + std::to_string(::getpid());
  double setup_s = TimedSetups(3, [&] { Setup(args.seed, workers, &s); });

  Report report;
  const size_t n = s.batches.size();
  const double interval_ms = 1000.0 * args.seconds / static_cast<double>(n);
  std::vector<double> append_us(n), lateness_ms(n), staleness_ms(n);
  std::vector<double> refresh_ms, rows_per_refresh;
  uint64_t refreshes = 0, refresh_failures = 0, adhoc_failures = 0;
  AdhocStats adhoc;

  std::mutex mu;
  std::condition_variable cv;
  size_t appended = 0;        // batches in the table, guarded by mu
  bool writer_failed = false;  // guarded by mu

  RssWindows rss(std::chrono::milliseconds(2000));
  double cpu0 = ProcessCpuSeconds();
  std::unique_ptr<ThreadSampler> threads;
  if (args.trace) threads = std::make_unique<ThreadSampler>();
  auto start = Clock::now();

  std::thread writer([&] {
    for (size_t k = 0; k < n; ++k) {
      auto due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(interval_ms * k));
      std::this_thread::sleep_until(due);
      auto a0 = Clock::now();
      try {
        s.table->Append(s.batches[k]);
      } catch (const std::exception& e) {
        // The run cannot cover every row any more: end it; the cold
        // re-query check below fails.
        std::fprintf(stderr, "append failed: %s\n", e.what());
        std::lock_guard<std::mutex> lock(mu);
        writer_failed = true;
        appended = n;
        cv.notify_all();
        return;
      }
      append_us[k] = 1000.0 * MsSince(a0);
      lateness_ms[k] = MsBetween(due, a0);
      {
        std::lock_guard<std::mutex> lock(mu);
        appended = k + 1;
      }
      cv.notify_all();
    }
  });

  std::thread refresher([&] {
    size_t covered = 0;  // batches some standing state already includes
    Subscription* subs[2] = {s.q1.get(), s.q6.get()};
    uint64_t rows_before[2] = {subs[0]->Current().rows_covered,
                               subs[1]->Current().rows_covered};
    while (covered < n) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return appended > covered; });
        if (writer_failed) return;
      }
      for (int i = 0; i < 2; ++i) {
        ++refreshes;
        auto r0 = Clock::now();
        std::optional<SubscriptionState> state;
        try {
          state = subs[i]->Refresh();
        } catch (const std::exception& e) {
          // Stop refreshing: the cold re-query check below then fails too.
          ++refresh_failures;
          std::fprintf(stderr, "refresh failed: %s\n", e.what());
          return;
        }
        if (!state) continue;
        double now_ms = MsSince(start);
        refresh_ms.push_back(MsBetween(r0, Clock::now()));
        rows_per_refresh.push_back(static_cast<double>(state->rows_covered - rows_before[i]));
        rows_before[i] = state->rows_covered;
        while (covered < n && s.batch_end[covered] <= state->rows_covered) {
          staleness_ms[covered] = now_ms - interval_ms * static_cast<double>(covered);
          ++covered;
        }
      }
    }
  });

  std::thread reader([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return appended > 0; });
    }
    for (size_t i = 0;; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (appended == n) break;
      }
      try {
        if (args.trace) {
          AdhocTraced(s, i, &adhoc);
        } else if (i % 2 == 0) {
          AdhocOla(s, &adhoc);
        } else {
          AdhocExact(s, &adhoc);
        }
      } catch (const std::exception& e) {
        ++adhoc_failures;
        std::fprintf(stderr, "ad-hoc Q6 failed: %s\n", e.what());
      }
    }
  });

  writer.join();
  refresher.join();
  reader.join();
  double wall_s = MsSince(start) / 1000.0;
  double peak_rss_mb = rss.MedianMb();
  double cpu_s = ProcessCpuSeconds() - cpu0;
  size_t peak_threads = threads != nullptr ? threads->peak() : 0;
  threads.reset();

  report.attempted = n + refreshes + adhoc.ola_ms.size() + adhoc.exact_ms.size() +
                     adhoc.traced_ms.size() + adhoc.plain_ms.size() + adhoc_failures;
  report.failed = refresh_failures + adhoc_failures + (writer_failed ? 1 : 0);
  report.correct = report.failed == 0;

  // Cold re-query: with the writer stopped and the tail sealed, the
  // standing answers must match a from-scratch exact run byte for byte.
  s.table->SealHot();
  s.q1->Refresh();
  s.q6->Refresh();
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  for (int q : {1, 6}) {
    const Subscription& sub = q == 1 ? *s.q1 : *s.q6;
    DataFrame cold = s.db->Prepare(tpch::Query(q)).Execute(exact);
    SubscriptionState standing = sub.Current();
    bool ok = standing.frame != nullptr &&
              standing.rows_covered == s.batch_end.back() &&
              WireBytes(*standing.frame) == WireBytes(cold);
    if (!ok) std::fprintf(stderr, "standing Q%d differs from the cold re-query\n", q);
    report.Count(ok);
  }
  LiveTableStats st = s.table->stats();

  if (!args.trace) {
    double adhoc_done = static_cast<double>(adhoc.ola_ms.size() + adhoc.exact_ms.size());
    report.Add("setup_s", setup_s, "s");
    report.Detail("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("ttfe_ms", Percentile(adhoc.ttfe, 0.5), "ms");
    report.Add("final_ms", Percentile(adhoc.ola_ms, 0.5), "ms");
    report.Detail("first_err_pct", Median(adhoc.first_err), "%");
    report.Add("qps", adhoc_done / wall_s, "1/s");

    report.Detail("staleness_p50_ms", Percentile(staleness_ms, 0.5), "ms");
    report.Detail("staleness_p95_ms", Percentile(staleness_ms, 0.95), "ms");
    report.Detail("live_query_p50_ms", Percentile(adhoc.ola_ms, 0.5), "ms");
    report.Detail("live_query_p90_ms", Percentile(adhoc.ola_ms, 0.90), "ms");
    report.Detail("live_exact_p50_ms", Percentile(adhoc.exact_ms, 0.5), "ms");
    report.Detail("live_query_ttfe_p95_ms", Percentile(adhoc.ttfe, 0.95), "ms");
    report.Detail("live_query_tt1pct_p50_ms", Percentile(adhoc.tt1, 0.5), "ms");
    report.Detail("writer_late_p95_ms", Percentile(lateness_ms, 0.95), "ms");
    report.Detail("batches", static_cast<double>(n), "count");
    report.Detail("adhoc_queries", adhoc_done, "count");
    report.Detail("workers", static_cast<double>(workers), "count");
    report.Detail("scale_factor", kScaleFactor, "sf");
    return report;
  }

  LayerProbe probe;
  probe.TimePrepare(tpch::QuerySql(1), *s.catalog);
  probe.TimePrepare(tpch::QuerySql(6), *s.catalog);
  size_t blocks_read = 0, blocks_skipped = 0;
  for (const LiveTabletRef& t : s.table->SnapshotInfo().tablets) {
    if (t.table == nullptr || t.table->block_source() == nullptr) continue;
    wakeblock::ScanStats scan = t.table->block_source()->stats();
    blocks_read += scan.blocks_read;
    blocks_skipped += scan.blocks_skipped;
  }
  probe.TimeDecode(s.adhoc->plan().node(), *s.catalog);
  AddLayerMetrics(adhoc.split, probe, &report);
  double total_blocks = static_cast<double>(blocks_read + blocks_skipped);
  report.Add("storage.skip_ratio",
             total_blocks > 0 ? static_cast<double>(blocks_skipped) / total_blocks : 0, "ratio");
  report.Add("storage.blocks_read", static_cast<double>(blocks_read), "count");
  report.Add("exec.states_per_query", Mean(adhoc.states), "count");
  report.Add("exec.peak_threads", static_cast<double>(peak_threads), "count");
  report.Add("common.cores_busy", cpu_s / wall_s, "cores");
  report.Add("ingest.staleness_ms_p50", Percentile(staleness_ms, 0.5), "ms");
  report.Add("ingest.staleness_ms_p95", Percentile(staleness_ms, 0.95), "ms");
  report.Add("ingest.append_us_p50", Percentile(append_us, 0.5), "us");
  report.Add("ingest.append_us_p95", Percentile(append_us, 0.95), "us");
  report.Add("ingest.refresh_ms_p50", Percentile(refresh_ms, 0.5), "ms");
  report.Add("ingest.refresh_ms_p95", Percentile(refresh_ms, 0.95), "ms");
  report.Add("ingest.rows_per_refresh", Mean(rows_per_refresh), "count");
  report.Add("ingest.tablets_flushed", static_cast<double>(st.tablets_flushed), "count");
  report.Add("ingest.flush_failures", static_cast<double>(st.flush_failures), "count");
  report.Add("trace.overhead_pct",
             100.0 * (GeoMean(adhoc.traced_ms) / GeoMean(adhoc.plain_ms) - 1.0), "%");
  std::string path =
      args.trace_dir + "/trace-live-ingest-" + std::to_string(args.seed) + ".json";
  if (!WriteTrace(path, adhoc.spans)) throw std::runtime_error("cannot write " + path);
  return report;
}

}  // namespace perfbench
