// serve-mix: a closed loop of client connections over loopback to an
// in-process wake::Server whose Db reads a wakeblock catalog packed at
// set-up. Each client runs seeded rounds: every mix query once as kOla
// and two as kExact (rotating, so every query gets equal exact samples),
// in a seeded order. Every answer must be byte-identical to the
// in-process exact one.
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "api/db.h"
#include "bench.h"
#include "client/client.h"
#include "common/rng.h"
#include "common/wire.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/wakeblock.h"
#include "tpch/dbgen.h"
#include "tpch/queries_sql.h"

using namespace wake;

namespace perfbench {

namespace {

constexpr double kScaleFactor = 0.1;
constexpr size_t kPartitions = 12;
constexpr double kFailedMs = std::numeric_limits<double>::infinity();
const std::vector<int> kMix = {1, 3, 5, 6, 10, 12, 14, 19};

struct Serving {
  std::string dir;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Db> db;
  std::unique_ptr<Server> server;
  std::vector<DataFrame> truth;  // per kMix entry, in-process kExact

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() { Teardown(); }
  void Teardown() {
    if (server != nullptr) server->Shutdown(5000);
    server.reset();
    db.reset();
    catalog.reset();
    truth.clear();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

void Setup(uint64_t seed, size_t workers, Serving* s) {
  s->Teardown();
  std::filesystem::create_directories(s->dir);
  {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = kScaleFactor;
    cfg.partitions = kPartitions;
    cfg.seed = seed;
    Catalog generated = tpch::Generate(cfg);
    for (const std::string& name : generated.TableNames()) {
      wakeblock::Write(generated.Get(name), s->dir);
    }
  }
  s->catalog = std::make_unique<Catalog>(wakeblock::OpenCatalog(s->dir));
  DbOptions options;
  options.workers = workers;
  s->db = std::make_unique<Db>(s->catalog.get(), options);
  s->server = std::make_unique<Server>(s->db.get());
  s->server->Start();
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  for (int q : kMix) s->truth.push_back(s->db->Prepare(tpch::QuerySql(q)).Execute(exact));
  // Warm-up: one remote round trip.
  ClientOptions copts;
  copts.port = s->server->port();
  Client warm(copts);
  warm.Execute(tpch::QuerySql(6));
  warm.Close();
}

struct Op {
  size_t mix_index;
  bool exact;
};

/// Client `c`'s seeded sequence of rounds.
class OpStream {
 public:
  OpStream(uint64_t seed, size_t client) : rng_(seed * 1000003 + client), client_(client) {}
  Op Next() {
    if (pos_ == round_.size()) Refill();
    return round_[pos_++];
  }

 private:
  void Refill() {
    round_.clear();
    pos_ = 0;
    for (size_t i = 0; i < kMix.size(); ++i) round_.push_back({i, false});
    size_t base = 2 * (rounds_++ + client_);
    round_.push_back({base % kMix.size(), true});
    round_.push_back({(base + 1) % kMix.size(), true});
    rng_.Shuffle(&round_);
  }
  Rng rng_;
  size_t client_;
  size_t rounds_ = 0;
  size_t pos_ = 0;
  std::vector<Op> round_;
};

/// What the closed loop measured (merged over clients).
struct LoopStats {
  std::vector<double> ttfe, ola_ms, exact_ms;
  // Per kMix entry: time to 1% error is set by each query's data, so it
  // is summarised per query rather than over the pooled mixture.
  std::vector<std::vector<double>> tt1 = std::vector<std::vector<double>>(kMix.size());
  std::vector<std::vector<double>> first_err = std::vector<std::vector<double>>(kMix.size());
  uint64_t attempted = 0, failed = 0;
  double wall_s = 0;
  // Traced loops only: the wire codec over every streamed state.
  double codec_ms = 0, wire_bytes = 0;
};

LoopStats RunLoop(const Args& args, const Serving& s, size_t clients, double seconds,
                  bool probe_codec) {
  LoopStats total;
  std::mutex mu;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats mine;
      ClientOptions copts;
      copts.port = s.server->port();
      copts.client_name = "perfbench-" + std::to_string(c);
      copts.jitter_seed = args.seed + c;
      std::optional<Client> client;
      try {
        client.emplace(copts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %zu failed: %s\n", c, e.what());
        ++mine.attempted;
        ++mine.failed;
      }
      OpStream ops(args.seed, c);
      while (client && Clock::now() < deadline) {
        Op op = ops.Next();
        int q = kMix[op.mix_index];
        const DataFrame& truth = s.truth[op.mix_index];
        StateScorer scorer(&truth, KeyColumns(q));
        bool ok = false;
        auto t0 = Clock::now();
        double latency = kFailedMs;
        try {
          RemoteRunOptions ro;
          ro.engine = op.exact ? QueryEngine::kExact : QueryEngine::kOla;
          RemoteQuery rq = client->Submit(tpch::QuerySql(q), ro);
          while (auto state = rq.Next()) {
            double at = MsSince(t0);
            scorer.OnState(*state->frame, state->is_final, at);
            if (probe_codec) {
              auto c0 = Clock::now();
              wire::WireWriter w;
              protocol::EncodeDataFrame(*state->frame, &w);
              std::string bytes = w.Take();
              wire::WireReader r(bytes);
              DataFrame back = protocol::DecodeDataFrame(&r);
              mine.codec_ms += MsSince(c0);
              mine.wire_bytes += static_cast<double>(bytes.size());
            }
          }
          QueryResult result = rq.Result();
          latency = MsSince(t0);
          ok = result.frame != nullptr && SameAnswer(truth, *result.frame);
          if (!ok) std::fprintf(stderr, "q%d: remote answer differs\n", q);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "q%d failed: %s\n", q, e.what());
        }
        ++mine.attempted;
        if (!ok) {
          ++mine.failed;
          latency = kFailedMs;
        }
        if (op.exact) {
          mine.exact_ms.push_back(latency);
          continue;
        }
        OlaTiming t = scorer.timing();
        mine.ola_ms.push_back(latency);
        mine.ttfe.push_back(ok ? t.ttfe_ms : kFailedMs);
        mine.tt1[op.mix_index].push_back(ok ? t.tt1pct_ms : kFailedMs);
        if (ok) mine.first_err[op.mix_index].push_back(t.first_err_pct);
      }
      if (client) client->Close();
      std::lock_guard<std::mutex> lock(mu);
      auto append = [](std::vector<double>* to, const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&total.ttfe, mine.ttfe);
      append(&total.ola_ms, mine.ola_ms);
      append(&total.exact_ms, mine.exact_ms);
      for (size_t i = 0; i < kMix.size(); ++i) {
        append(&total.tt1[i], mine.tt1[i]);
        append(&total.first_err[i], mine.first_err[i]);
      }
      total.attempted += mine.attempted;
      total.failed += mine.failed;
      total.codec_ms += mine.codec_ms;
      total.wire_bytes += mine.wire_bytes;
    });
  }
  for (auto& t : threads) t.join();
  total.wall_s = MsSince(start) / 1000.0;
  return total;
}

wakeblock::ScanStats SumScanStats(const Catalog& catalog) {
  wakeblock::ScanStats sum;
  for (const std::string& name : catalog.TableNames()) {
    const auto& source = catalog.Get(name).block_source();
    if (source == nullptr) continue;
    wakeblock::ScanStats st = source->stats();
    sum.blocks_read += st.blocks_read;
    sum.blocks_skipped += st.blocks_skipped;
  }
  return sum;
}

Report MeasureUntraced(const Args& args, const Serving& s, double setup_s, size_t workers,
                       size_t clients) {
  Report report;
  RssWindows rss(std::chrono::milliseconds(2000));
  LoopStats loop = RunLoop(args, s, clients, args.seconds, false);
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  report.correct = loop.failed == 0;
  std::vector<double> tt1_q, err_q;
  for (size_t i = 0; i < kMix.size(); ++i) {
    tt1_q.push_back(Median(loop.tt1[i]));
    err_q.push_back(Median(loop.first_err[i]));
  }
  double qps = static_cast<double>(loop.attempted - loop.failed) / loop.wall_s;

  report.Add("setup_s", setup_s, "s");
  report.Detail("peak_rss_mb", rss.MedianMb(), "MB");
  report.Add("ttfe_ms", Percentile(loop.ttfe, 0.5), "ms");
  report.Add("final_ms", Percentile(loop.ola_ms, 0.5), "ms");
  report.Detail("first_err_pct", Median(err_q), "%");
  report.Add("qps", qps, "1/s");

  report.Detail("qps", qps, "1/s");
  report.Detail("latency_p50_ms", Percentile(loop.ola_ms, 0.5), "ms");
  report.Detail("latency_p95_ms", Percentile(loop.ola_ms, 0.95), "ms");
  report.Detail("remote_ttfe_p50_ms", Percentile(loop.ttfe, 0.5), "ms");
  report.Detail("exact_p50_ms", Percentile(loop.exact_ms, 0.5), "ms");
  report.Detail("remote_ttfe_p95_ms", Percentile(loop.ttfe, 0.95), "ms");
  report.Detail("tt1pct_geo_ms", GeoMean(tt1_q), "ms");
  report.Detail("ola_samples", static_cast<double>(loop.ola_ms.size()), "count");
  report.Detail("exact_samples", static_cast<double>(loop.exact_ms.size()), "count");
  report.Detail("clients", static_cast<double>(clients), "count");
  report.Detail("workers", static_cast<double>(workers), "count");
  report.Detail("scale_factor", kScaleFactor, "sf");
  return report;
}

/// Traced run: half the time the same closed loop with the wire codec
/// and server/storage counters probed; half in-process replays of the
/// mix (untraced and traced WakeEngine runs, remote vs in-process first
/// state, parse/optimize/decode probes).
Report MeasureTraced(const Args& args, const Serving& s, size_t clients) {
  Report report;
  ServerStats server0 = s.server->stats();
  double cpu0 = ProcessCpuSeconds();
  size_t peak_threads = 0;
  LoopStats loop;
  {
    ThreadSampler threads;
    loop = RunLoop(args, s, clients, args.seconds / 2, true);
    peak_threads = threads.peak();
  }
  double cpu_s = ProcessCpuSeconds() - cpu0;
  ServerStats server1 = s.server->stats();
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  report.correct = loop.failed == 0;

  LayerSplit split;
  LayerProbe probe;
  std::vector<double> plain_ms, traced_ms, states, overhead_ms;
  size_t blocks_read = 0, blocks_skipped = 0;
  std::vector<std::pair<std::string, std::vector<TraceSpan>>> spans;
  ClientOptions copts;
  copts.port = s.server->port();
  Client client(copts);
  auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds / 2);
  for (size_t rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
    for (size_t i = 0; i < kMix.size(); ++i) {
      int q = kMix[i];
      const std::string sql = tpch::QuerySql(q);
      const DataFrame& truth = s.truth[i];
      PreparedQuery prepared = s.db->Prepare(sql);
      const PlanNodePtr& plan = prepared.plan().node();
      wakeblock::ScanStats before = SumScanStats(*s.catalog);
      EngineRunResult plain = RunEngine(*s.catalog, s.db->pool(), plan, false, &truth,
                                        KeyColumns(q));
      if (rep == 0) {
        // Blocks the engine skipped, over one pass of the mix: an exact
        // count for a given seed.
        wakeblock::ScanStats after = SumScanStats(*s.catalog);
        blocks_read += after.blocks_read - before.blocks_read;
        blocks_skipped += after.blocks_skipped - before.blocks_skipped;
      }
      EngineRunResult traced = RunEngine(*s.catalog, s.db->pool(), plan, true, &truth,
                                         KeyColumns(q));
      report.Count(SameAnswer(truth, *plain.final_frame));
      report.Count(SameAnswer(truth, *traced.final_frame));
      plain_ms.push_back(plain.timing.final_ms);
      traced_ms.push_back(traced.timing.final_ms);
      states.push_back(static_cast<double>(traced.timing.states));
      split.Add(traced.spans, traced.wall_s);

      // Remote minus in-process time to the first state, same query.
      auto t0 = Clock::now();
      QueryHandle local = prepared.Run();
      local.Next();
      double local_ms = MsSince(t0);
      local.Wait();
      t0 = Clock::now();
      RemoteQuery remote = client.Submit(sql);
      remote.Next();
      double remote_ms = MsSince(t0);
      QueryResult result = remote.Result();
      report.Count(result.frame != nullptr && SameAnswer(truth, *result.frame));
      overhead_ms.push_back(remote_ms - local_ms);

      if (rep == 0) {
        probe.TimePrepare(sql, *s.catalog);
        probe.TimeDecode(plan, *s.catalog);
        spans.emplace_back("q" + std::to_string(q), std::move(traced.spans));
      }
    }
  }
  client.Close();

  AddLayerMetrics(split, probe, &report);
  double blocks = static_cast<double>(blocks_read + blocks_skipped);
  report.Add("storage.skip_ratio",
             blocks > 0 ? static_cast<double>(blocks_skipped) / blocks : 0, "ratio");
  report.Add("storage.blocks_read", static_cast<double>(blocks_read), "count");
  report.Add("exec.states_per_query", Mean(states), "count");
  report.Add("exec.peak_threads", static_cast<double>(peak_threads), "count");
  report.Add("common.cores_busy", cpu_s / loop.wall_s, "cores");
  double queries = static_cast<double>(
      std::max<uint64_t>(1, server1.queries_started - server0.queries_started));
  report.Add("server.snapshots_per_query",
             static_cast<double>(server1.snapshots_sent - server0.snapshots_sent) / queries,
             "count");
  double served = static_cast<double>(std::max<uint64_t>(1, loop.attempted));
  report.Add("server.wire_bytes_per_query", loop.wire_bytes / served, "B");
  report.Add("server.codec_ms_per_query", loop.codec_ms / served, "ms");
  report.Add("client.remote_overhead_ms", Median(overhead_ms), "ms");
  report.Add("trace.overhead_pct", 100.0 * (GeoMean(traced_ms) / GeoMean(plain_ms) - 1.0),
             "%");
  std::string path =
      args.trace_dir + "/trace-serve-mix-" + std::to_string(args.seed) + ".json";
  if (!WriteTrace(path, spans)) throw std::runtime_error("cannot write " + path);
  return report;
}

}  // namespace

Report RunServeMix(const Args& args) {
  size_t workers = UsableWorkers();
  size_t clients = UsableWorkers();
  Serving s;
  s.dir = args.work_dir + "/serve-mix-" + std::to_string(::getpid());
  double setup_s = TimedSetups(3, [&] { Setup(args.seed, workers, &s); });
  if (args.trace) return MeasureTraced(args, s, clients);
  return MeasureUntraced(args, s, setup_s, workers, clients);
}

}  // namespace perfbench
