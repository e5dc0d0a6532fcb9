// Shared-engine concurrency: wall-clock time of a fixed TPC-H query batch
// executed (a) serially through the per-query QueryExecutor path and (b) on
// one shared worker-pool Engine at 1/2/4 concurrent queries, each at 4 and
// at 8 pool workers.
//
// Single queries rarely keep every worker busy (pipeline structure bounds
// their DOP); admitting several queries to one pool fills the idle workers,
// so batch throughput should rise with the concurrency level. With more
// workers than cores the pool is oversubscribed: busy workers then compete
// for the cores with the coordinator threads that turn finished blocks into
// consumer work, so the 8-worker arms show what that hand-off costs.
//
// After one unrecorded warm-up round, every repeat runs each arm once, in
// an order that rotates by repeat, so drift in machine load spreads over
// all arms. Each arm reports the median and interquartile range of its
// batch time over the repeats; `w<N>_speedup_<c>` is the serial median over
// the shared median. Per-query latency percentiles cover every query of the
// recorded shared-engine runs at one worker count.
//
// Emits BENCH_concurrency.json. The checked-in copy comes from
//   UOT_RUNS=21 ./build/bench/bench_concurrent_throughput
// on a Release build. UOT_THREADS runs a single worker count instead.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/engine.h"
#include "util/timer.h"

namespace {

using namespace uot;
using namespace uot::bench;

// Two instances each of four differently shaped queries: scan-heavy (1, 6),
// join-heavy (3), and join+aggregate (12).
const std::vector<int> kBatch = {1, 3, 6, 12, 1, 3, 6, 12};
const std::vector<int> kConcurrency = {1, 2, 4};

std::vector<std::unique_ptr<QueryPlan>> BuildBatch(
    const TpchDatabase& db, const TpchPlanConfig& plan_config) {
  std::vector<std::unique_ptr<QueryPlan>> plans;
  for (int query : kBatch) plans.push_back(BuildTpchPlan(query, db, plan_config));
  return plans;
}

/// The historical path: one fresh worker pool per query, one at a time.
double RunBatchSerial(const TpchDatabase& db,
                      const TpchPlanConfig& plan_config,
                      const ExecConfig& exec) {
  // Plans are built up front so the measured interval is pure execution.
  std::vector<std::unique_ptr<QueryPlan>> plans = BuildBatch(db, plan_config);
  Timer timer;
  for (auto& plan : plans) QueryExecutor::Execute(plan.get(), exec);
  return timer.ElapsedSeconds() * 1e3;
}

/// Records each query's latency into `latency` unless it is null.
double RunBatchConcurrent(Engine* engine, const TpchDatabase& db,
                          const TpchPlanConfig& plan_config,
                          const ExecConfig& exec, int concurrency,
                          obs::Histogram* latency) {
  std::vector<std::unique_ptr<QueryPlan>> plans = BuildBatch(db, plan_config);
  std::atomic<size_t> next{0};
  Timer timer;
  std::vector<std::thread> drivers;
  for (int d = 0; d < concurrency; ++d) {
    drivers.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= plans.size()) return;
        const ExecutionStats stats = engine->Execute(plans[i].get(), exec);
        if (latency != nullptr) {
          latency->Record(stats.query_end_ns - stats.query_start_ns);
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  return timer.ElapsedSeconds() * 1e3;
}

/// One shared engine per worker count, with the latency histogram of its
/// recorded (not warm-up) queries.
struct Pool {
  explicit Pool(int w)
      : workers(w),
        engine(EngineConfig{w, 0, 0}),
        latency(obs::Histogram::DefaultLatencyBoundsNs()) {}
  int workers;
  Engine engine;
  obs::Histogram latency;
};

/// One arm: a worker count and a concurrency level (0 = serial).
struct Arm {
  Pool* pool;
  int concurrency;
  std::string key;
};

}  // namespace

int main() {
  const double sf = ScaleFactor();
  const int runs = Runs();
  std::vector<int> worker_counts = {4, 8};
  if (std::getenv("UOT_THREADS") != nullptr) worker_counts = {Threads()};

  std::printf("Concurrent throughput: %zu-query TPC-H batch "
              "(SF=%.3f, %d interleaved repeats)\n\n",
              kBatch.size(), sf, runs);

  TpchFixture fixture(sf, Layout::kColumnStore, MidBlockBytes());
  TpchPlanConfig plan_config;
  plan_config.block_bytes = MidBlockBytes();
  ExecConfig exec;
  exec.uot = UotPolicy::LowUot(1);

  BenchJson json("concurrency");
  json.SetString("batch", "2x{Q1,Q3,Q6,Q12}");
  json.Set("scale_factor", sf);
  json.Set("repeats", runs);
  SetMachineInfo(&json);

  std::vector<std::unique_ptr<Pool>> pools;
  std::vector<Arm> arms;
  for (const int workers : worker_counts) {
    auto pool = std::make_unique<Pool>(workers);
    const std::string w = "w" + std::to_string(workers) + "_";
    arms.push_back({pool.get(), 0, w + "serial"});
    for (const int c : kConcurrency) {
      arms.push_back({pool.get(), c, w + "shared_" + std::to_string(c)});
    }
    pools.push_back(std::move(pool));
  }

  const auto run_arm = [&](const Arm& arm, bool record) {
    ExecConfig arm_exec = exec;
    arm_exec.num_workers = arm.pool->workers;
    return arm.concurrency == 0
               ? RunBatchSerial(fixture.db(), plan_config, arm_exec)
               : RunBatchConcurrent(&arm.pool->engine, fixture.db(),
                                    plan_config, arm_exec, arm.concurrency,
                                    record ? &arm.pool->latency : nullptr);
  };
  for (const Arm& arm : arms) run_arm(arm, /*record=*/false);
  std::vector<std::vector<double>> samples(arms.size());
  for (int r = 0; r < runs; ++r) {
    for (size_t i = 0; i < arms.size(); ++i) {
      const size_t a = (i + static_cast<size_t>(r)) % arms.size();
      samples[a].push_back(run_arm(arms[a], /*record=*/true));
    }
  }

  double serial_ms = 0.0;
  for (size_t a = 0; a < arms.size(); ++a) {
    const Arm& arm = arms[a];
    const Spread ms = Quartiles(samples[a]);
    json.Set(arm.key + "_ms_median", ms.median);
    json.Set(arm.key + "_ms_p25", ms.p25);
    json.Set(arm.key + "_ms_p75", ms.p75);
    json.Set(arm.key + "_ms_iqr", ms.iqr());
    if (arm.concurrency == 0) {
      serial_ms = ms.median;
      std::printf("%d workers\n  %-24s %8.2f ms (IQR %6.2f)\n",
                  arm.pool->workers, "serial (per-query pools)", ms.median,
                  ms.iqr());
      continue;
    }
    const double speedup = serial_ms / ms.median;
    std::printf("  shared engine, %d concurrent %8.2f ms (IQR %6.2f)  "
                "%5.2fx vs serial\n",
                arm.concurrency, ms.median, ms.iqr(), speedup);
    json.Set("w" + std::to_string(arm.pool->workers) + "_speedup_" +
                 std::to_string(arm.concurrency),
             speedup);
  }

  for (const auto& pool : pools) {
    const std::string w = "w" + std::to_string(pool->workers) + "_";
    const obs::HistogramSnapshot snap = pool->latency.TakeSnapshot();
    std::printf("\n%d workers, per-query latency over all recorded "
                "shared-engine runs: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms "
                "(%llu queries)",
                pool->workers, static_cast<double>(snap.p50) / 1e6,
                static_cast<double>(snap.p95) / 1e6,
                static_cast<double>(snap.p99) / 1e6,
                static_cast<unsigned long long>(snap.count));
    json.Set(w + "latency_p50_ms", static_cast<double>(snap.p50) / 1e6);
    json.Set(w + "latency_p95_ms", static_cast<double>(snap.p95) / 1e6);
    json.Set(w + "latency_p99_ms", static_cast<double>(snap.p99) / 1e6);
    json.Set(w + "queries_recorded", static_cast<double>(snap.count));
  }
  std::printf("\n\n");
  json.Write();
  std::printf("\nTarget: >= 1.2x batch throughput at 4 concurrent queries.\n");
  return 0;
}
