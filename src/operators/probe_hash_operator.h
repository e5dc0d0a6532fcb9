#ifndef UOT_OPERATORS_PROBE_HASH_OPERATOR_H_
#define UOT_OPERATORS_PROBE_HASH_OPERATOR_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "expr/predicate.h"
#include "join/hash_table.h"
#include "obs/trace_event.h"
#include "operators/build_hash_operator.h"
#include "operators/key_util.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"

namespace uot {

enum class JoinKind : uint8_t {
  kInner = 0,
  kLeftSemi = 1,  // emit probe row iff a match exists (EXISTS subqueries)
  kLeftAnti = 2,  // emit probe row iff no match exists (NOT EXISTS)
};

/// An extra non-equijoin condition checked per candidate match:
///   probe_value  op  scale * payload_value
/// Both sides are widened to double when either column is a DOUBLE (or
/// `scale != 1`), otherwise compared as int64. This covers the TPC-H
/// residuals: Q21's `l2.l_suppkey <> l1.l_suppkey` (integral), Q17's
/// `l_quantity < 0.2 * avg(l_quantity)` and Q20's
/// `ps_availqty > 0.5 * sum(l_quantity)` (scaled doubles), and Q2's
/// `ps_supplycost = min(ps_supplycost)`.
struct ResidualCondition {
  int probe_col;
  int payload_col;
  CompareOp op;
  double scale = 1.0;
};

/// Probes the join hash table with each input block: the consumer operator
/// of the paper's select -> probe pipeline (paper Sections III/V). One work
/// order per probe input block; work orders only become eligible after the
/// build operator finished (a blocking DAG dependency).
class ProbeHashOperator final : public Operator {
 public:
  /// `build` owns the hash table this operator probes; the plan must add a
  /// blocking edge build -> this.
  ProbeHashOperator(std::string name, const BuildHashOperator* build,
                    std::vector<int> probe_key_cols,
                    std::vector<int> probe_output_cols, JoinKind kind,
                    std::vector<ResidualCondition> residuals,
                    InsertDestination* destination);

  /// Probe input is a materialized table rather than a stream.
  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  void BindExecContext(const OperatorExecContext& ctx) override {
    exec_ctx_ = ctx;
  }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

  /// Output schema: probe output columns, then (for inner joins) the build
  /// payload columns.
  static Schema OutputSchema(const Schema& probe_schema,
                             const std::vector<int>& probe_output_cols,
                             const Schema& build_schema,
                             const std::vector<int>& payload_cols,
                             JoinKind kind);

  /// Buffers of the probe kernel, owned by the caller and reused across
  /// ProbeRows calls so the steady state allocates nothing. A caller whose
  /// sink can re-enter another probe (a fused stage flushing downstream)
  /// gives each probe its own.
  struct ProbeScratch {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> hashes;
    std::vector<JoinMatch> matches;
    std::vector<double> residual_vals;  // [condition * rows + row]
    std::vector<uint8_t> row_has_match;
    std::vector<std::byte> row;  // one packed output row
  };

  /// The probe kernel, shared by ProbeHashWorkOrder and fused probe stages.
  /// Probes rows [begin, end) of `block` against `table` in batches of the
  /// bound JoinKernelConfig: extract -> hash+prefetch -> match ->
  /// residual-filter -> emit. Each output row, packed in the destination
  /// schema, goes to `emit(const std::byte*)` in the order a row-at-a-time
  /// probe would produce it. Stage spans land on worker track `tid` under
  /// operator `op`.
  template <typename Emit>
  void ProbeRows(const Block& block, const JoinHashTable& table,
                 uint32_t begin, uint32_t end, uint32_t tid, int32_t op,
                 ProbeScratch* scratch, Emit&& emit) const;

  const BuildHashOperator* build() const { return build_; }
  InsertDestination* destination() const { return destination_; }
  /// The streaming/base input, exposed so a fused pipeline driver can pull
  /// this operator's pending blocks when it acts as a chain head.
  StreamingInput* streaming_input() { return &input_; }

 private:
  /// The kernel's stages before emission, over rows [base, base + m):
  /// leaves the matches that pass every residual in `scratch->matches`
  /// (grouped by batch-relative row, ascending) and, for semi/anti joins,
  /// per-row match flags in `scratch->row_has_match`. Returns the number
  /// of prefetches issued.
  uint64_t MatchBatch(const Block& block, const JoinHashTable& table,
                      uint32_t base, uint32_t m, uint32_t tid, int32_t op,
                      ProbeScratch* scratch) const;
  void CountBatches(uint64_t batches, uint64_t prefetches) const;

  const BuildHashOperator* const build_;
  const std::vector<int> probe_key_cols_;
  const std::vector<int> probe_output_cols_;
  const JoinKind kind_;
  const std::vector<ResidualCondition> residuals_;
  InsertDestination* const destination_;
  OperatorExecContext exec_ctx_;  // defaults until the scheduler binds one

  StreamingInput input_;
};

template <typename Emit>
void ProbeHashOperator::ProbeRows(const Block& block,
                                  const JoinHashTable& table, uint32_t begin,
                                  uint32_t end, uint32_t tid, int32_t op,
                                  ProbeScratch* scratch, Emit&& emit) const {
  // The probe part of an output row is a prefix of the destination schema.
  const Schema& out_schema = destination_->schema();
  const size_t payload_width =
      kind_ == JoinKind::kInner ? table.payload_schema().row_width() : 0;
  const size_t probe_width = out_schema.row_width() - payload_width;
  scratch->row.resize(out_schema.row_width());
  std::byte* row = scratch->row.data();

  const uint32_t batch = exec_ctx_.join.clamped_batch_size();
  uint64_t batches = 0;
  uint64_t prefetches = 0;
  for (uint32_t base = begin; base < end; base += batch) {
    const uint32_t m = std::min(batch, end - base);
    ++batches;
    prefetches += MatchBatch(block, table, base, m, tid, op, scratch);

    // Stage: emit. Matches arrive grouped by probe row ascending, so the
    // probe part is packed once per distinct matching row.
    const int64_t t0 = exec_ctx_.StageStart();
    if (kind_ == JoinKind::kInner) {
      uint32_t ready_row = UINT32_MAX;  // no probe part packed yet
      for (const JoinMatch& match : scratch->matches) {
        if (match.row != ready_row) {
          ExtractColumns(block, probe_output_cols_, out_schema,
                         base + match.row, row);
          ready_row = match.row;
        }
        if (payload_width > 0) {
          std::memcpy(row + probe_width, match.payload, payload_width);
        }
        emit(static_cast<const std::byte*>(row));
      }
    } else {
      const uint8_t want = kind_ == JoinKind::kLeftSemi ? 1 : 0;
      for (uint32_t i = 0; i < m; ++i) {
        if (scratch->row_has_match[i] != want) continue;
        ExtractColumns(block, probe_output_cols_, out_schema, base + i, row);
        emit(static_cast<const std::byte*>(row));
      }
    }
    exec_ctx_.TraceStage(tid, op, obs::JoinBatchStage::kEmit, t0, m);
  }
  CountBatches(batches, prefetches);
}

/// Probes one block against the build's hash table through the operator's
/// kernel, appending output rows to the operator's destination.
class ProbeHashWorkOrder final : public WorkOrder {
 public:
  ProbeHashWorkOrder(const Block* block, const ProbeHashOperator* op)
      : block_(block), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  const ProbeHashOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_PROBE_HASH_OPERATOR_H_
