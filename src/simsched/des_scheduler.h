#ifndef UOT_SIMSCHED_DES_SCHEDULER_H_
#define UOT_SIMSCHED_DES_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scheduler/uot_policy.h"
#include "util/macros.h"

namespace uot {

/// One operator in the simulated plan.
///
/// The discrete-event simulator reproduces the *scheduling* behavior of the
/// engine on a machine with `num_workers` true cores — the substitute for
/// the paper's 20-core evaluation box (Figs. 9/10; see DESIGN.md). Service
/// times come from a per-operator base cost plus a contention model:
///
///   service(dop) = work_ns * (1 + contention_alpha * (dop - 1))
///                  + overhead_ns * (1 + sync_beta * (dop - 1))
///
/// `work_ns` is the useful per-work-order work (scales with block size),
/// `overhead_ns` the fixed storage-management/scheduling cost per work
/// order, `contention_alpha` the interference slope (large shared hash
/// tables -> larger alpha), and `sync_beta` the slope of synchronization
/// cost in the storage-management subsystem (shrinks as blocks grow).
struct SimOperator {
  std::string name;
  /// Number of work orders (for leaf operators). Consumers derive their
  /// work orders from producer output instead.
  uint64_t num_work_orders = 0;
  double work_ns = 1e6;
  double overhead_ns = 0.0;
  double contention_alpha = 0.0;
  double sync_beta = 0.0;

  /// Index of the operator whose completed work orders feed this one
  /// (one output block per producer work order), or -1 for leaves.
  int streaming_producer = -1;
  /// Consumer work orders created per transferred producer block.
  double consumer_wo_per_block = 1.0;
  /// Operators that must fully finish before this one may start.
  std::vector<int> blocking_deps;
};

struct SimConfig {
  int num_workers = 20;
  /// The unit of transfer of every simulated edge, as in ExecConfig::uot.
  UotPolicy uot;
};

/// Per-operator simulation outcome.
struct SimOperatorResult {
  std::string name;
  uint64_t work_orders = 0;
  double total_task_ns = 0.0;
  double avg_task_ns = 0.0;
  double avg_dop = 0.0;  // time-averaged degree of parallelism while active
  double first_start_ns = 0.0;
  double last_end_ns = 0.0;
};

struct SimResult {
  double makespan_ns = 0.0;
  std::vector<SimOperatorResult> operators;

  double makespan_ms() const { return makespan_ns / 1e6; }
};

/// Deterministic discrete-event simulation of the work-order scheduler.
class DesScheduler {
 public:
  /// Runs the plan to completion and returns timing statistics.
  static SimResult Run(const std::vector<SimOperator>& ops,
                       const SimConfig& config);
};

}  // namespace uot

#endif  // UOT_SIMSCHED_DES_SCHEDULER_H_
