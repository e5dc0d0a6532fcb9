// tpch-materialize / tpch-pipeline: one closed-loop client calls
// Engine::Execute directly on the 21 supported TPC-H queries, in a fixed
// order, at either end of the unit-of-transfer spectrum.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/materializing_engine.h"
#include "common.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "layers.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace perfbench {
namespace {

struct TpchParams {
  double scale_factor;
  size_t block_bytes;
  uot::UotPolicy uot;
};

bool ParamsFor(const Options& options, TpchParams* out) {
  const double sf = options.smoke ? 0.01 : 0.1;
  if (options.workload == "tpch-materialize") {
    *out = TpchParams{sf, 256 * 1024, uot::UotPolicy::HighUot()};
    return true;
  }
  if (options.workload == "tpch-pipeline") {
    *out = TpchParams{sf, 16 * 1024, uot::UotPolicy::LowUot(1)};
    return true;
  }
  return false;
}

/// Everything one set-up creates; destroyed engine first.
struct Instance {
  std::unique_ptr<uot::StorageManager> storage;
  std::unique_ptr<uot::TpchDatabase> db;
  std::unique_ptr<uot::Engine> engine;

  ~Instance() {
    engine.reset();
    db.reset();
    storage.reset();
  }
};

/// One closed-loop request: build the plan, execute it, check the result.
struct RequestResult {
  int64_t start_ns = 0;  // absolute: request start
  int64_t build_ns = 0;
  int64_t execute_ns = 0;
  int64_t check_ns = 0;
  int64_t total_ns = 0;  // build + execute + check + plan teardown
  bool correct = true;
  uot::ExecutionStats stats;
};

RequestResult RunQuery(int query, const Instance& inst,
                       const uot::TpchPlanConfig& plan_config,
                       const uot::ExecConfig& exec,
                       const std::string& expected) {
  RequestResult r;
  const int64_t t0 = Nanos();
  std::unique_ptr<uot::QueryPlan> plan =
      uot::BuildTpchPlan(query, *inst.db, plan_config);
  const int64_t t1 = Nanos();
  r.stats = inst.engine->Execute(plan.get(), exec);
  const int64_t t2 = Nanos();
  r.correct = SameRows(expected, uot::CanonicalRows(*plan->result_table()));
  const int64_t t3 = Nanos();
  plan.reset();
  const int64_t t4 = Nanos();
  r.start_ns = t0;
  r.build_ns = t1 - t0;
  r.execute_ns = t2 - t1;
  r.check_ns = t3 - t2;
  r.total_ns = t4 - t0;
  return r;
}

}  // namespace

int RunTpchWorkload(const Options& options, Report* report) {
  TpchParams params;
  if (!ParamsFor(options, &params)) return 2;
  const int workers = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int>& queries = uot::SupportedTpchQueries();

  uot::TpchPlanConfig plan_config;
  plan_config.block_bytes = params.block_bytes;
  uot::ExecConfig exec;
  exec.uot = params.uot;
  exec.pipeline_mode = uot::PipelineMode::kVectorized;

  report->Meta("workload", options.workload);
  report->Meta("seed", static_cast<double>(options.seed));
  report->Meta("scale_factor", params.scale_factor);
  report->Meta("block_bytes", static_cast<double>(params.block_bytes));
  report->Meta("uot", params.uot.ToString());
  report->Meta("layout", "column-store");
  report->Meta("pipeline_mode", "vectorized");
  report->Meta("workers", workers);
  report->Meta("clients", 1);
  report->Meta("queries", static_cast<double>(queries.size()));

  // Set-up: data generation, engine start, one warm-up pass. It is timed
  // several times: in forked children first, then once in this process,
  // which keeps its set-up for the run. The oracle runs in a child too,
  // between generation and engine start, untimed.
  const auto generate = [&](Instance* in) {
    const double t0 = NowSeconds();
    in->storage = std::make_unique<uot::StorageManager>();
    in->db = std::make_unique<uot::TpchDatabase>(in->storage.get());
    uot::TpchConfig data;
    data.scale_factor = params.scale_factor;
    data.layout = uot::Layout::kColumnStore;
    data.block_bytes = params.block_bytes;
    data.seed = options.seed;
    in->db->Generate(data);
    return NowSeconds() - t0;
  };
  // Engine start and warm-up; checks the replies when `expected` is set.
  const auto start_engine = [&](Instance* in,
                         const std::vector<std::string>* expected) {
    const double t0 = NowSeconds();
    uot::EngineConfig engine_config;
    engine_config.num_workers = workers;
    in->engine = std::make_unique<uot::Engine>(engine_config);
    for (size_t i = 0; i < queries.size(); ++i) {
      const RequestResult r =
          RunQuery(queries[i], *in, plan_config, exec,
                   expected != nullptr ? (*expected)[i] : std::string());
      if (expected != nullptr && !r.correct) {
        report->AddMismatch("warm-up Q" + std::to_string(queries[i]));
      }
    }
    return NowSeconds() - t0;
  };
  const int setups = options.smoke ? 2 : 3;
  std::vector<double> setup_s, generate_s;
  if (!TimeSetUpsInChildren(
          setups - 1,
          [&] {
            Instance child;
            const double gen = generate(&child);
            return std::make_pair(gen, gen + start_engine(&child, nullptr));
          },
          &generate_s, &setup_s)) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  auto inst = std::make_unique<Instance>();
  const double gen = generate(inst.get());
  const double oracle_start = NowSeconds();
  std::vector<std::string> expected;
  const uot::TpchDatabase* db = inst->db.get();
  const bool oracle_ok = RunForked(
      [db, &queries, &plan_config] {
        std::vector<std::string> rows;
        for (int q : queries) {
          auto plan = uot::BuildTpchPlan(q, *db, plan_config);
          uot::MaterializingEngine::ExecutePlan(plan.get());
          rows.push_back(uot::CanonicalRows(*plan->result_table()));
        }
        return rows;
      },
      &expected);
  const double oracle_s = NowSeconds() - oracle_start;
  if (!oracle_ok || expected.size() != queries.size()) {
    std::fprintf(stderr, "oracle failed\n");
    return 1;
  }
  if (options.inject_mismatch) expected[0] += "injected,row\n";
  generate_s.push_back(gen);
  setup_s.push_back(gen + start_engine(inst.get(), &expected));

  // The measured loop: whole passes until the time is up. Under --trace 1,
  // passes alternate untraced / traced; the traced ones record spans and
  // feed the per-layer accounting.
  std::map<int, std::vector<double>> exec_ms;  // untraced, per query
  std::vector<double> latency_ms;              // untraced, per request
  // Queries per second of each pass (loop time without the driver's result
  // checks); qps is the median over passes.
  std::vector<double> untraced_rates, traced_rates;
  uint64_t untraced_n = 0, attempted = 0;
  LayerAccounting layers(workers);
  SpanRecorder spans;
  int32_t request_id = 0;
  int passes = 0;
  const double budget_s = options.seconds;
  const double start = NowSeconds();
  while (passes < 2 || NowSeconds() - start < budget_s) {
    const bool traced = options.trace && passes % 2 == 1;
    if (traced) layers.BeginPass();
    const int64_t pass_start = Nanos();
    double pass_ns = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const RequestResult r =
          RunQuery(queries[i], *inst, plan_config, exec, expected[i]);
      ++attempted;
      if (!r.correct) {
        char what[64];
        std::snprintf(what, sizeof(what), "Q%d in pass %d", queries[i],
                      passes);
        report->AddMismatch(what);
      }
      pass_ns += static_cast<double>(r.total_ns - r.check_ns);
      if (traced) {
        layers.Add(r.stats, r.build_ns, r.execute_ns);
        const int64_t built = r.start_ns + r.build_ns;
        const int64_t end = built + r.execute_ns;
        ++request_id;
        spans.Span(kSpanRequest, r.start_ns, end, request_id, 1);
        spans.Span(kSpanPlanBuild, r.start_ns, built, request_id, 1);
        spans.Span(kSpanExecute, built, end, request_id, 1);
      } else {
        ++untraced_n;
        exec_ms[queries[i]].push_back(static_cast<double>(r.execute_ns) /
                                      1e6);
        latency_ms.push_back(
            static_cast<double>(r.build_ns + r.execute_ns) / 1e6);
      }
    }
    if (traced) spans.Span(kSpanWorkload, pass_start, Nanos(), -1, 1);
    (traced ? traced_rates : untraced_rates)
        .push_back(static_cast<double>(queries.size()) / (pass_ns / 1e9));
    ++passes;
  }
  report->set_attempted(attempted);
  report->set_failed(0);  // in-process calls cannot be refused

  std::vector<double> per_query_median;
  for (const auto& [q, v] : exec_ms) per_query_median.push_back(Median(v));
  const double qps = Median(untraced_rates);
  const Tail p95 = TailOf(latency_ms, 95);
  std::string note = "median of set-ups [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    note += (i > 0 ? ", " : "") + std::to_string(setup_s[i]);
  }
  note += "] s; oracle " + std::to_string(oracle_s) + " s not included";

  // End-to-end metrics, always from untraced passes.
  const auto e2e = [report](const std::string& name, double value,
                            const std::string& unit, const std::string& n) {
    report->EndToEnd(name, value, unit, n);
  };
  for (const auto& [q, v] : exec_ms) {
    char name[32];
    std::snprintf(name, sizeof(name), "query_ms.q%02d", q);
    char note[96];
    std::snprintf(note, sizeof(note), "median Execute time, p90 %.3f ms, max %.3f ms",
                  Quantile(v, 0.9), Quantile(v, 1.0));
    report->Detail(name, Median(v), "ms", note);
  }
  e2e("setup_s", Median(setup_s), "s", note);
  e2e("qps", qps, "1/s",
      "median of " + std::to_string(untraced_rates.size()) +
          " untraced passes, " + std::to_string(untraced_n) + " queries");
  e2e("query_ms_geomean", GeoMean(per_query_median), "ms",
      "geomean over " + std::to_string(per_query_median.size()) +
          " queries of the per-query median Execute time");
  e2e("latency_ms_p50", Quantile(latency_ms, 0.5), "ms",
      std::to_string(latency_ms.size()) + " samples");
  report->Detail("latency_ms_p95", p95.value, "ms", TailNote(p95));
  const Tail p99 = TailOf(latency_ms, 99);
  report->Detail("latency_ms_p99", p99.value, "ms", TailNote(p99));
  e2e("peak_rss_mb", PeakRssMb(), "MB", "getrusage, oracle excluded");
  report->Detail("failed_ratio", 0.0, "ratio",
                 "0 of " + std::to_string(attempted) + " requests failed");
  report->Detail("oracle_s", oracle_s, "s", "MaterializingEngine, forked");

  if (options.trace) {
    report->Layer("tpch.generate_s", Median(generate_s), "s",
                   "median of " + std::to_string(setups) + " set-ups");
    layers.Emit(report, /*admission=*/true);
    const double traced_qps = Median(traced_rates);
    report->Layer("obs.overhead_frac", qps > 0 ? 1.0 - traced_qps / qps : 0,
                   "ratio",
                   "1 - traced qps / untraced qps, alternating passes");
    report->Layer("server.cache_hit_ratio", 0, "ratio", "no server");
    report->Layer("server.cache_evictions", 0, "count", "no server");
    report->Layer("model.evaluations", 0, "count", "no model");
    const std::map<std::string, double> self = spans.SelfMillis();
    for (const auto& [kind, ms] : self) {
      report->Detail("span_self." + kind + "_ms", ms, "ms",
                     "total self time in traced passes");
    }
    const std::string span_path = options.out_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  ".spans.json";
    if (spans.Write(span_path)) report->Line("span file: " + span_path);
  }
  return 0;
}

}  // namespace perfbench
