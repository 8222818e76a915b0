// tpch-ola: the paper's own experiment. All 22 TPC-H queries, prepared
// once through wake::Db over an in-memory catalog, run one at a time as
// kExact and as kOla, repeated until the run's time is up.
#include <limits>
#include <memory>

#include "api/db.h"
#include "bench.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/queries_sql.h"

using namespace wake;

namespace perfbench {

namespace {

constexpr double kScaleFactor = 0.1;
constexpr size_t kPartitions = 12;
constexpr double kFailedMs = std::numeric_limits<double>::infinity();

struct Session {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Db> db;
  std::vector<int> queries;
  std::vector<PreparedQuery> prepared;
};

void Setup(uint64_t seed, size_t workers, Session* s) {
  s->prepared.clear();
  s->db.reset();
  s->catalog.reset();
  tpch::DbgenConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.partitions = kPartitions;
  cfg.seed = seed;
  s->catalog = std::make_unique<Catalog>(tpch::Generate(cfg));
  DbOptions options;
  options.workers = workers;
  s->db = std::make_unique<Db>(s->catalog.get(), options);
  s->queries = tpch::AllQueries();
  for (int q : s->queries) s->prepared.push_back(s->db->Prepare(tpch::QuerySql(q)));
  // Warm-up: spin the worker pool once.
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  s->prepared[5].Execute(exact);
}

/// The exact answer of query `qi`; the first one becomes the truth, and
/// must score 0% error with full recall against itself.
bool RunExact(const Session& s, size_t qi, std::vector<DataFrame>* truth,
              std::vector<bool>* have_truth, double* ms) {
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  auto t0 = Clock::now();
  DataFrame answer = s.prepared[qi].Execute(exact);
  *ms = MsSince(t0);
  if (!(*have_truth)[qi]) {
    (*truth)[qi] = std::move(answer);
    (*have_truth)[qi] = true;
    size_t keys = KeyColumns(s.queries[qi]);
    return ErrorPercent((*truth)[qi], (*truth)[qi], keys) == 0.0 &&
           Recall((*truth)[qi], (*truth)[qi], keys) == 1.0;
  }
  return SameAnswer((*truth)[qi], answer);
}

Report MeasureUntraced(const Args& args, const Session& s, double setup_s,
                       size_t workers) {
  Report report;
  const size_t n = s.queries.size();
  std::vector<DataFrame> truth(n);
  std::vector<bool> have_truth(n, false);
  std::vector<std::vector<double>> ttfe(n), tt1(n), fin(n), exact(n), err(n);
  RssWindows rss;  // one window per repetition of the 22 queries
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(args.seconds);
  size_t reps = 0;
  while (reps == 0 || Clock::now() < deadline) {
    if (reps > 0) rss.Mark();
    for (size_t qi = 0; qi < n; ++qi) {
      double exact_ms = kFailedMs;
      bool ok = false;
      try {
        ok = RunExact(s, qi, &truth, &have_truth, &exact_ms);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "q%d exact failed: %s\n", s.queries[qi], e.what());
      }
      report.Count(ok);
      exact[qi].push_back(ok ? exact_ms : kFailedMs);
      if (!have_truth[qi]) continue;

      OlaTiming t;
      ok = false;
      try {
        StateScorer scorer(&truth[qi], KeyColumns(s.queries[qi]));
        auto t0 = Clock::now();
        QueryHandle h = s.prepared[qi].Run();
        while (auto state = h.Next()) {
          scorer.OnState(*state->frame, state->is_final, MsSince(t0));
        }
        DataFrame final_frame = h.Final();
        t = scorer.timing();
        ok = SameAnswer(truth[qi], final_frame);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "q%d ola failed: %s\n", s.queries[qi], e.what());
      }
      report.Count(ok);
      if (!ok) t.ttfe_ms = t.tt1pct_ms = t.final_ms = kFailedMs;
      ttfe[qi].push_back(t.ttfe_ms);
      tt1[qi].push_back(t.tt1pct_ms);
      fin[qi].push_back(t.final_ms);
      err[qi].push_back(t.first_err_pct);
    }
    ++reps;
  }
  double wall_s = MsSince(start) / 1000.0;

  std::vector<double> ttfe_q, tt1_q, fin_q, exact_q, err_q, speedup, slowdown;
  std::vector<double> ttfe_p95_q, fin_p90_q;
  for (size_t qi = 0; qi < n; ++qi) {
    ttfe_q.push_back(Median(ttfe[qi]));
    ttfe_p95_q.push_back(Percentile(ttfe[qi], 0.95));
    fin_p90_q.push_back(Percentile(fin[qi], 0.90));
    tt1_q.push_back(Median(tt1[qi]));
    fin_q.push_back(Median(fin[qi]));
    exact_q.push_back(Median(exact[qi]));
    err_q.push_back(Median(err[qi]));
    speedup.push_back(exact_q.back() / ttfe_q.back());
    slowdown.push_back(fin_q.back() / exact_q.back());
  }
  report.Add("setup_s", setup_s, "s");
  report.Detail("peak_rss_mb", rss.MedianMb(), "MB");
  report.Add("ttfe_ms", GeoMean(ttfe_q), "ms");
  report.Add("final_ms", GeoMean(fin_q), "ms");
  report.Detail("first_err_pct", Median(err_q), "%");
  report.Add("qps", static_cast<double>(report.attempted - report.failed) / wall_s,
             "1/s");

  report.Detail("ttfe_geo_ms", GeoMean(ttfe_q), "ms");
  report.Detail("tt1pct_geo_ms", GeoMean(tt1_q), "ms");
  report.Detail("ttfe_p95_geo_ms", GeoMean(ttfe_p95_q), "ms");
  report.Detail("final_p90_geo_ms", GeoMean(fin_p90_q), "ms");
  report.Detail("ttfe_speedup_median", Median(speedup), "x");
  report.Detail("final_slowdown_median", Median(slowdown), "x");
  report.Detail("final_geo_ms", GeoMean(fin_q), "ms");
  report.Detail("exact_geo_ms", GeoMean(exact_q), "ms");
  report.Detail("repetitions", static_cast<double>(reps), "count");
  report.Detail("workers", static_cast<double>(workers), "count");
  report.Detail("scale_factor", kScaleFactor, "sf");
  for (size_t qi = 0; qi < n; ++qi) {
    std::string q = "q" + std::to_string(s.queries[qi]);
    report.Detail(q + ".ttfe_ms", ttfe_q[qi], "ms");
    report.Detail(q + ".final_ms", fin_q[qi], "ms");
    report.Detail(q + ".exact_ms", exact_q[qi], "ms");
    report.Detail(q + ".first_err_pct", err_q[qi], "%");
  }
  return report;
}

/// Traced run: each query on a WakeEngine sharing the Db's pool, once
/// untraced and once traced, plus the outside probes of parse, optimize
/// and chunk decode.
Report MeasureTraced(const Args& args, const Session& s) {
  Report report;
  const size_t n = s.queries.size();
  std::vector<DataFrame> truth(n);
  std::vector<bool> have_truth(n, false);
  std::vector<double> plain_ms, traced_ms, states;
  LayerSplit split;
  LayerProbe probe;
  std::vector<std::pair<std::string, std::vector<TraceSpan>>> spans;
  ThreadSampler threads;
  double cpu0 = ProcessCpuSeconds();
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(args.seconds);
  for (size_t rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
    for (size_t qi = 0; qi < n; ++qi) {
      int q = s.queries[qi];
      double ms = 0;
      if (rep == 0) probe.TimePrepare(tpch::QuerySql(q), *s.catalog);
      bool ok = RunExact(s, qi, &truth, &have_truth, &ms);
      report.Count(ok);
      const PlanNodePtr& plan = s.prepared[qi].plan().node();
      EngineRunResult plain =
          RunEngine(*s.catalog, s.db->pool(), plan, false, &truth[qi], KeyColumns(q));
      EngineRunResult traced =
          RunEngine(*s.catalog, s.db->pool(), plan, true, &truth[qi], KeyColumns(q));
      report.Count(SameAnswer(truth[qi], *plain.final_frame));
      report.Count(SameAnswer(truth[qi], *traced.final_frame));
      plain_ms.push_back(plain.timing.final_ms);
      traced_ms.push_back(traced.timing.final_ms);
      states.push_back(static_cast<double>(traced.timing.states));
      split.Add(traced.spans, traced.wall_s);
      if (rep == 0) {
        probe.TimeDecode(plan, *s.catalog);
        spans.emplace_back("q" + std::to_string(q), std::move(traced.spans));
      }
    }
  }
  double wall_s = MsSince(start) / 1000.0;
  double cpu_s = ProcessCpuSeconds() - cpu0;

  AddLayerMetrics(split, probe, &report);
  report.Add("exec.states_per_query", Mean(states), "count");
  report.Add("exec.peak_threads", static_cast<double>(threads.peak()), "count");
  report.Add("common.cores_busy", cpu_s / wall_s, "cores");
  report.Add("trace.overhead_pct",
             100.0 * (GeoMean(traced_ms) / GeoMean(plain_ms) - 1.0), "%");
  std::string path = args.trace_dir + "/trace-tpch-ola-" + std::to_string(args.seed) +
                     ".json";
  if (!WriteTrace(path, spans)) throw std::runtime_error("cannot write " + path);
  return report;
}

}  // namespace

Report RunTpchOla(const Args& args) {
  size_t workers = UsableWorkers();
  Session s;
  double setup_s = TimedSetups(3, [&] { Setup(args.seed, workers, &s); });
  if (args.trace) return MeasureTraced(args, s);
  return MeasureUntraced(args, s, setup_s, workers);
}

}  // namespace perfbench
