// Fixed UoT arms vs the CostModelUotChooser's per-edge plan pins under a
// constrained memory budget: fixed pipelining (1 block), a low-UoT granule
// (4 blocks), fixed whole-table, and the model's static per-edge picks.
//
// Two scenarios:
//  1. Solo: each arm runs TPC-H Q3 and Q7 alone under a budget derived
//     from a calibration run. Shows the static spectrum trade-off
//     (transfers vs footprint).
//  2. Shared: three companion Q3 queries run concurrently on one Engine
//     and a measured Q3 starts mid-flight, all under one shared budget.
//     The measured query's work orders defer or stall whenever the
//     companions' buffered intermediates hold the budget.
//
// After one unrecorded warm-up round, every repeat runs each arm once, in
// an order that rotates by repeat, so drift in machine load spreads over
// all arms. Each arm reports the median
// and interquartile range of its wall-clock time over the repeats, and the
// medians of its budget deferrals, stalls, transfers and temp peak.
// `<scenario>_model_regret` is the model arm's median divided by the
// smallest fixed-arm median: above 1 means some fixed UoT beat the model.
//
// Emits BENCH_uot_budget.json. The checked-in copy comes from
//   UOT_SF=0.05 UOT_THREADS=4 UOT_RUNS=11 ./build/bench/bench_uot_budget
// on a Release build.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/engine.h"
#include "model/uot_chooser.h"

namespace {

using namespace uot;
using namespace uot::bench;

constexpr uint64_t kLowUotBlocks = 4;  // the "static low-UoT" granule

/// One execution of one arm.
struct Sample {
  double ms = 0.0;
  uint64_t deferrals = 0;
  uint64_t stalls = 0;
  uint64_t transfers = 0;
  int64_t peak_temp_bytes = 0;
};

uint64_t TotalTransfers(const ExecutionStats& stats) {
  uint64_t total = 0;
  for (const EdgeStats& edge : stats.edges) total += edge.transfers;
  return total;
}

Sample FromStats(const ExecutionStats& stats, int64_t peak_temp_bytes) {
  return Sample{stats.QueryMillis(), stats.budget_deferrals,
                stats.budget_stalls, TotalTransfers(stats), peak_temp_bytes};
}

double EnvPercent(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) / 100.0 : def;
}

/// Which UoT an arm runs with: the model's plan pins when `annotations` is
/// set, else one fixed value for every edge.
struct ArmSpec {
  const char* key;    // JSON key fragment
  const char* label;  // console label
  bool fixed_arm;     // competes for the best fixed-arm median
  const std::vector<UotChoice>* annotations;
  UotPolicy fixed;
};

std::vector<ArmSpec> Arms(const std::vector<UotChoice>* model_choices) {
  return {
      {"pipeline", "fixed(1)", true, nullptr, UotPolicy::LowUot(1)},
      {"fixed_low", "fixed(4)", true, nullptr,
       UotPolicy::LowUot(kLowUotBlocks)},
      {"whole", "fixed(whole)", true, nullptr, UotPolicy::HighUot()},
      {"model", "model", false, model_choices, UotPolicy()},
  };
}

void ApplyArm(const ArmSpec& spec, QueryPlan* plan, ExecConfig* exec) {
  if (spec.annotations != nullptr) {
    CostModelUotChooser::AnnotatePlan(plan, *spec.annotations);
  } else {
    exec->uot = spec.fixed;
  }
}

/// Runs every arm `runs` times, interleaved: repeat r runs the arms in an
/// order rotated by r. A first, unrecorded round warms caches and the
/// allocator for every arm. Returns one sample vector per arm.
template <typename RunArm>
std::vector<std::vector<Sample>> RunInterleaved(
    const std::vector<ArmSpec>& arms, int runs, const RunArm& run_arm) {
  for (const ArmSpec& arm : arms) run_arm(arm);
  std::vector<std::vector<Sample>> samples(arms.size());
  for (int r = 0; r < runs; ++r) {
    for (size_t i = 0; i < arms.size(); ++i) {
      const size_t a = (i + static_cast<size_t>(r)) % arms.size();
      samples[a].push_back(run_arm(arms[a]));
    }
  }
  return samples;
}

/// Solo scenario: one execution of `query` under `exec_base`.
Sample RunSolo(int query, const TpchDatabase& db,
               const TpchPlanConfig& plan_config, const ExecConfig& exec_base,
               const ArmSpec& spec) {
  auto plan = BuildTpchPlan(query, db, plan_config);
  ExecConfig exec = exec_base;
  ApplyArm(spec, plan.get(), &exec);
  obs::MetricsRegistry metrics;
  exec.metrics = &metrics;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  const obs::Gauge* temp = metrics.FindGauge("memory.temporary_table.bytes");
  return FromStats(stats, temp != nullptr ? temp->Max() : 0);
}

/// Shared scenario: `kCompanions` Q3 queries start on one Engine, then the
/// measured Q3 starts `delay_ms` later under the same shared budget.
constexpr int kCompanions = 3;

Sample RunShared(const TpchDatabase& db, StorageManager* storage,
                 const TpchPlanConfig& plan_config, const ArmSpec& spec,
                 int64_t shared_budget, double delay_ms, int workers) {
  // System-wide temp peak across companions + measured, straight from the
  // shared tracker: concurrent sessions clobber each other's per-session
  // gauge observers, and the aggregate footprint is the quantity the
  // shared budget actually constrains.
  storage->tracker().ResetPeaks();
  Engine engine(EngineConfig{workers, 0, 0});
  ExecConfig exec_base;
  exec_base.memory_budget_bytes = shared_budget;

  std::vector<std::unique_ptr<QueryPlan>> companion_plans;
  std::vector<ExecConfig> companion_execs;
  for (int c = 0; c < kCompanions; ++c) {
    companion_plans.push_back(BuildTpchPlan(3, db, plan_config));
    ExecConfig exec = exec_base;
    ApplyArm(spec, companion_plans.back().get(), &exec);
    companion_execs.push_back(exec);
  }

  std::vector<std::thread> threads;
  threads.reserve(kCompanions);
  for (int c = 0; c < kCompanions; ++c) {
    threads.emplace_back([&engine, &companion_plans, &companion_execs, c] {
      engine.Execute(companion_plans[static_cast<size_t>(c)].get(),
                     companion_execs[static_cast<size_t>(c)]);
    });
  }

  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(delay_ms * 1000.0)));

  auto measured_plan = BuildTpchPlan(3, db, plan_config);
  ExecConfig measured_exec = exec_base;
  ApplyArm(spec, measured_plan.get(), &measured_exec);
  const ExecutionStats stats =
      engine.Execute(measured_plan.get(), measured_exec);
  for (auto& t : threads) t.join();
  return FromStats(stats,
                   storage->tracker().Peak(MemoryCategory::kTemporaryTable));
}

Spread SpreadOf(const std::vector<Sample>& samples,
                double (*field)(const Sample&)) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(field(s));
  return Quartiles(std::move(values));
}

/// Reports every arm of one scenario and its model regret. Returns the
/// median wall-clock time of each arm.
std::vector<double> Report(BenchJson* json, const std::string& scenario,
                           const std::vector<ArmSpec>& arms,
                           const std::vector<std::vector<Sample>>& samples) {
  std::vector<double> medians;
  double best_fixed = 1e300, model = 0.0;
  for (size_t a = 0; a < arms.size(); ++a) {
    const std::vector<Sample>& s = samples[a];
    const Spread ms = SpreadOf(s, [](const Sample& x) { return x.ms; });
    const double deferrals =
        SpreadOf(s, [](const Sample& x) {
          return static_cast<double>(x.deferrals);
        }).median;
    const double stalls =
        SpreadOf(s, [](const Sample& x) {
          return static_cast<double>(x.stalls);
        }).median;
    const double transfers =
        SpreadOf(s, [](const Sample& x) {
          return static_cast<double>(x.transfers);
        }).median;
    const double peak_temp =
        SpreadOf(s, [](const Sample& x) {
          return static_cast<double>(x.peak_temp_bytes);
        }).median;
    std::printf("  %-12s %8.2f ms (IQR %6.2f)  %6.0f deferrals  %6.0f stalls"
                "  %6.0f transfers  %8.1f KB temp peak\n",
                arms[a].label, ms.median, ms.iqr(), deferrals, stalls,
                transfers, peak_temp / 1024.0);
    const std::string prefix = scenario + "_" + arms[a].key;
    json->Set(prefix + "_ms_median", ms.median);
    json->Set(prefix + "_ms_p25", ms.p25);
    json->Set(prefix + "_ms_p75", ms.p75);
    json->Set(prefix + "_ms_iqr", ms.iqr());
    json->Set(prefix + "_deferrals_median", deferrals);
    json->Set(prefix + "_stalls_median", stalls);
    json->Set(prefix + "_transfers_median", transfers);
    json->Set(prefix + "_peak_temp_bytes_median", peak_temp);
    medians.push_back(ms.median);
    if (arms[a].fixed_arm) {
      best_fixed = std::min(best_fixed, ms.median);
    } else {
      model = ms.median;
    }
  }
  const double regret = model / best_fixed;
  std::printf("  model regret vs best fixed arm: %.3f\n", regret);
  json->Set(scenario + "_model_regret", regret);
  return medians;
}

}  // namespace

int main() {
  const double sf = ScaleFactor();
  const int workers = Threads();
  const int runs = Runs();

  std::printf("Fixed UoT vs model pins under a constrained memory budget "
              "(SF=%.3f, %d workers, %d interleaved repeats)\n",
              sf, workers, runs);

  TpchFixture fixture(sf, Layout::kColumnStore, MidBlockBytes());
  TpchPlanConfig plan_config;
  plan_config.block_bytes = SmallBlockBytes();

  BenchJson json("uot_budget");
  json.Set("scale_factor", sf);
  json.Set("workers", workers);
  json.Set("repeats", runs);
  SetMachineInfo(&json);

  // Saved Q3 calibration outputs for the shared-budget scenario below.
  std::vector<UotChoice> q3_choices;
  int64_t q3_base = 0, q3_hash = 0, q3_temp = 0;
  double q3_low_ms = 0.0;

  for (const int query : {3, 7}) {
    const std::string q = "q" + std::to_string(query);

    // Calibration: one unconstrained materializing run with intermediates
    // kept, yielding (a) oracle per-edge cardinalities for the chooser and
    // (b) the footprint ceiling the budget is derived from.
    ExecConfig calib;
    calib.num_workers = workers;
    calib.uot = UotPolicy::HighUot();
    calib.drop_consumed_blocks = false;
    fixture.storage()->tracker().ResetPeaks();  // per-query ceilings
    auto calib_plan = BuildTpchPlan(query, fixture.db(), plan_config);
    QueryExecutor::Execute(calib_plan.get(), calib);
    const std::vector<EdgeEstimate> estimates =
        CostModelUotChooser::EstimatesFromExecutedPlan(*calib_plan);

    // Peaks straight from the tracker: the base tables were allocated
    // before any query ran, so the per-run gauges never see them.
    const MemoryTracker& tracker = fixture.storage()->tracker();
    const int64_t base_peak = tracker.Peak(MemoryCategory::kBaseTable);
    const int64_t hash_peak = tracker.Peak(MemoryCategory::kHashTable);
    const int64_t temp_peak = tracker.Peak(MemoryCategory::kTemporaryTable);
    // Free the calibration run's kept intermediates before any arm runs:
    // they would otherwise sit in the temporary-table category for the
    // whole A/B, inflating every arm's footprint by a constant and eating
    // most of the budget headroom the arms are supposed to compete for.
    calib_plan.reset();
    // The budget admits the structural footprint (base tables + hash
    // tables have no UoT-dependent alternative in this engine) plus a
    // slice of the materializing strategy's intermediate peak: wide
    // transfers must defer, narrow ones mostly fit. UOT_BUDGET_SLACK
    // overrides the slice (percent of the materializing temp peak).
    const double slack_frac = EnvPercent("UOT_BUDGET_SLACK", 0.55);
    const int64_t budget =
        base_peak + hash_peak +
        static_cast<int64_t>(static_cast<double>(temp_peak) * slack_frac);

    std::printf("\nQ%d solo: base %.1f KB, hash %.1f KB, temp(materializing) "
                "%.1f KB -> budget %.1f KB\n",
                query, base_peak / 1024.0, hash_peak / 1024.0,
                temp_peak / 1024.0, budget / 1024.0);
    json.Set(q + "_budget_bytes", static_cast<double>(budget));

    // The chooser's budget is the memory its choices can actually spend:
    // the slack above the structural footprint. Handing it the raw engine
    // budget would let the base tables inflate every edge's cap.
    CostModelUotChooser::Options chooser_options;
    chooser_options.threads = workers;
    chooser_options.memory_budget_bytes = budget - base_peak - hash_peak;
    const CostModelUotChooser chooser(chooser_options);
    auto shape_plan = BuildTpchPlan(query, fixture.db(), plan_config);
    const std::vector<UotChoice> choices =
        chooser.ChoosePlan(*shape_plan, estimates);
    for (size_t e = 0; e < choices.size(); ++e) {
      std::printf("  edge %zu: %s\n", e, choices[e].ToString().c_str());
    }

    ExecConfig exec;
    exec.num_workers = workers;
    exec.memory_budget_bytes = budget;

    const std::vector<ArmSpec> arms = Arms(&choices);
    const std::vector<double> medians = Report(
        &json, q, arms,
        RunInterleaved(arms, runs, [&](const ArmSpec& spec) {
          return RunSolo(query, fixture.db(), plan_config, exec, spec);
        }));

    if (query == 3) {
      q3_choices = choices;
      q3_base = base_peak;
      q3_hash = hash_peak;
      q3_temp = temp_peak;
      q3_low_ms = medians[1];  // fixed(4)
    }
  }

  // Shared-budget scenario: kCompanions Q3 queries occupy one Engine, the
  // measured Q3 starts mid-flight. The budget covers the structural
  // footprint of all queries (base tables + every query's hash tables)
  // plus a margin of buffered intermediates; whether the measured query's
  // scans are admitted or deferred depends on how much of that margin the
  // companions' transfer buffers hold at its start. UOT_SHARED_MARGIN
  // overrides the margin (percent of the companions' combined
  // materializing temp peak); UOT_SHARED_DELAY the start offset (percent
  // of the solo fixed(4) median runtime).
  const double margin_frac = EnvPercent("UOT_SHARED_MARGIN", 0.08);
  const double delay_frac = EnvPercent("UOT_SHARED_DELAY", 0.35);
  const int64_t margin = static_cast<int64_t>(
      margin_frac * static_cast<double>(kCompanions) *
      static_cast<double>(q3_temp));
  const int64_t shared_budget =
      q3_base + (kCompanions + 1) * q3_hash + margin;
  const double delay_ms = delay_frac * q3_low_ms;

  std::printf("\nQ3 shared: %d companions + measured, margin %.1f KB, "
              "budget %.1f KB, start delay %.2f ms\n",
              kCompanions, margin / 1024.0, shared_budget / 1024.0, delay_ms);
  json.Set("q3_shared_budget_bytes", static_cast<double>(shared_budget));

  const std::vector<ArmSpec> shared_arms = Arms(&q3_choices);
  Report(&json, "q3_shared", shared_arms,
         RunInterleaved(shared_arms, runs, [&](const ArmSpec& spec) {
           return RunShared(fixture.db(), fixture.storage(), plan_config,
                            spec, shared_budget, delay_ms, workers);
         }));

  json.Write();
  return 0;
}
