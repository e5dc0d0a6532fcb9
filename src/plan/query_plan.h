#ifndef UOT_PLAN_QUERY_PLAN_H_
#define UOT_PLAN_QUERY_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "scheduler/uot_policy.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "storage/table.h"

namespace uot {

/// A physical query plan: a DAG of operators connected by two kinds of
/// edges (paper Section III-C):
///
///  - streaming edges carry blocks of the producer's output to the consumer;
///    the scheduler's UoT policy decides when accumulated blocks are
///    actually transferred;
///  - blocking edges express hard ordering (e.g. a probe operator cannot
///    start until its hash-table build operator has finished).
///
/// The plan also owns the temporary tables and insert destinations of its
/// producer operators, and identifies the result table.
class QueryPlan {
 public:
  explicit QueryPlan(StorageManager* storage) : storage_(storage) {}
  UOT_DISALLOW_COPY_AND_ASSIGN(QueryPlan);

  struct StreamingEdge {
    int producer;
    int consumer;
    int consumer_input;
    /// Per-edge UoT annotation in blocks per transfer
    /// (UotPolicy::kWholeTable = materialize). 0 = unannotated: the edge
    /// follows ExecConfig::uot. An annotation pins the edge for the run.
    uint64_t uot_blocks = 0;
  };
  struct BlockingEdge {
    int producer;
    int consumer;
  };

  /// What the Section V/VI cost model expected of one streaming edge when
  /// it chose the edge's UoT. Stored on the plan by
  /// CostModelUotChooser::AnnotatePredictions so the post-run profile can
  /// compute residuals (predicted minus measured) without re-running the
  /// model — the observe half of the observe–model–act loop.
  struct EdgePrediction {
    /// UoT the model chose (UotPolicy::kWholeTable = materialize).
    uint64_t uot_blocks = 0;
    /// Estimated intermediate size the choice was based on.
    uint64_t est_rows = 0;
    uint64_t est_bytes = 0;
    uint64_t est_blocks = 0;
    /// Expected number of transfers at the chosen UoT.
    uint64_t predicted_transfers = 0;
    /// Section VI footprint the choice budgets for: bytes buffered on the
    /// edge at the chosen UoT (whole intermediate when materializing).
    uint64_t predicted_footprint_bytes = 0;
    /// Section V transfer-cost estimate of the chosen point.
    double predicted_cost_ns = 0.0;
    /// Chooser's one-line rationale (CostModelUotChooser::UotChoice).
    std::string reason;
  };

  /// Adds an operator, returning its index.
  int AddOperator(std::unique_ptr<Operator> op);

  /// Declares that `producer`'s completed output blocks stream to
  /// `consumer` (input slot `consumer_input`), subject to the UoT policy.
  void AddStreamingEdge(int producer, int consumer, int consumer_input = 0);

  /// Declares that `consumer` may not generate work orders until
  /// `producer` has finished.
  void AddBlockingEdge(int producer, int consumer);

  /// Creates a plan-owned temporary table.
  Table* CreateTempTable(std::string name, Schema schema, Layout layout,
                         size_t block_bytes);

  /// Creates a plan-owned insert destination writing to `table`. Register
  /// it as an operator's output with RegisterOutput once the operator has
  /// been added; the scheduler installs the block-ready listener at
  /// execution start.
  InsertDestination* CreateDestination(Table* table);

  /// Declares `destination` (from CreateDestination) as `producer`'s
  /// output. A producer has at most one destination.
  void RegisterOutput(int producer, InsertDestination* destination);

  void SetResultTable(Table* table) { result_table_ = table; }
  Table* result_table() const { return result_table_; }

  int num_operators() const { return static_cast<int>(operators_.size()); }
  Operator* op(int i) { return operators_[static_cast<size_t>(i)].get(); }
  const Operator* op(int i) const {
    return operators_[static_cast<size_t>(i)].get();
  }

  const std::vector<StreamingEdge>& streaming_edges() const {
    return streaming_edges_;
  }
  const std::vector<BlockingEdge>& blocking_edges() const {
    return blocking_edges_;
  }

  /// Pins streaming edge `edge_index` to `uot`, overriding ExecConfig::uot
  /// for that edge.
  void AnnotateEdgeUot(int edge_index, UotPolicy uot);

  /// The UoT annotation of streaming edge `edge_index`, or nullopt when
  /// the edge is unannotated.
  std::optional<UotPolicy> edge_uot(int edge_index) const;

  /// Records the model's expectation for streaming edge `edge_index`
  /// (overwriting any previous prediction). Predictions are advisory
  /// metadata: they never affect execution, only profiles.
  void AnnotateEdgePrediction(int edge_index, EdgePrediction prediction);

  /// The model prediction for streaming edge `edge_index`, or nullopt.
  std::optional<EdgePrediction> edge_prediction(int edge_index) const;

  /// Index of the streaming edge producer -> consumer (input slot
  /// `consumer_input`), or -1 if no such edge exists.
  int FindStreamingEdge(int producer, int consumer,
                        int consumer_input = 0) const;

  /// Declares that the operators `ops` (a linear producer→consumer chain,
  /// in pipeline order, length >= 2) should execute as one fused pipeline
  /// when the session runs with ExecConfig::pipeline_mode == kFused: rows
  /// walk the whole chain inside a single work order and the interior
  /// streaming edges transfer nothing. Advisory under kVectorized.
  /// Chains must be disjoint; fused::PipelineFuser produces valid ones
  /// automatically, and the session re-validates before fusing.
  void AnnotateFusedPipeline(std::vector<int> ops);

  /// The fused-pipeline annotations, in annotation order.
  const std::vector<std::vector<int>>& fused_pipelines() const {
    return fused_pipelines_;
  }

  /// Renders the DAG: operators, streaming edges (with UoT annotations)
  /// and blocking edges.
  std::string ToString() const;

  /// The destination registered for `producer`, or nullptr.
  InsertDestination* destination_of(int producer) const;

  StorageManager* storage() const { return storage_; }

 private:
  StorageManager* const storage_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<StreamingEdge> streaming_edges_;
  std::vector<BlockingEdge> blocking_edges_;
  /// Sparse map edge index -> prediction, sized lazily on first annotate.
  std::vector<std::optional<EdgePrediction>> edge_predictions_;
  std::vector<std::unique_ptr<Table>> temp_tables_;
  struct OwnedDestination {
    int producer;
    std::unique_ptr<InsertDestination> destination;
  };
  std::vector<OwnedDestination> destinations_;
  std::vector<std::vector<int>> fused_pipelines_;
  Table* result_table_ = nullptr;
};

}  // namespace uot

#endif  // UOT_PLAN_QUERY_PLAN_H_
