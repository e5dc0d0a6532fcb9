// Per-layer accounting over ExecutionStats, shared by the TPC-H workloads
// and the served-mix replay: work-order and transfer counts, operator task
// time by kind, scheduler self time, memory high-water marks, and a wall
// time breakdown of each request that adds up exactly.
#ifndef UOT_PERFBENCH_LAYERS_H_
#define UOT_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "scheduler/execution_stats.h"

namespace perfbench {

/// Operator kinds, grouped by operator-name prefix.
enum OpGroup { kSel = 0, kBuild, kProbe, kAgg, kSort, kOther, kNumOpGroups };
const char* OpGroupName(int group);
OpGroup GroupOfOperator(const std::string& name);

/// Accumulates the layers of many executions, bucketed into passes (one
/// pass = one round over the workload's query list).
class LayerAccounting {
 public:
  explicit LayerAccounting(int workers) : workers_(workers) {}

  void BeginPass();
  /// One request: `build_ns` spent building the plan, `execute_ns` inside
  /// Engine::Execute, `stats` what it returned.
  void Add(const uot::ExecutionStats& stats, int64_t build_ns,
           int64_t execute_ns);

  size_t requests() const { return request_ms_.size(); }

  /// Writes every layer metric; `admission` includes the admission-wait
  /// percentiles (workloads that see admission elsewhere pass false).
  void Emit(Report* report, bool admission) const;

 private:
  struct Pass {
    double work_orders = 0, transfers = 0, blocks = 0, bytes = 0;
    double peak_temp = 0, peak_hash_table = 0, max_buffered = 0;
    double fused_work_orders = 0, fused_rows = 0;
    double task_ns[kNumOpGroups] = {};
    double group_work_orders[kNumOpGroups] = {};
  };

  const int workers_;
  std::vector<Pass> passes_;
  // Per request, in ms.
  std::vector<double> request_ms_, build_ms_, admission_ms_, uncovered_ms_,
      unattributed_ms_;
  std::vector<double> share_ms_[kNumOpGroups];
  double task_ns_total_ = 0;
  double worker_wall_ns_total_ = 0;
};

}  // namespace perfbench

#endif  // UOT_PERFBENCH_LAYERS_H_
