#include "operators/probe_hash_operator.h"

#include "obs/metrics.h"
#include "operators/numeric_util.h"

namespace uot {

ProbeHashOperator::ProbeHashOperator(
    std::string name, const BuildHashOperator* build,
    std::vector<int> probe_key_cols, std::vector<int> probe_output_cols,
    JoinKind kind, std::vector<ResidualCondition> residuals,
    InsertDestination* destination)
    : Operator(std::move(name)),
      build_(build),
      probe_key_cols_(std::move(probe_key_cols)),
      probe_output_cols_(std::move(probe_output_cols)),
      kind_(kind),
      residuals_(std::move(residuals)),
      destination_(destination) {
  UOT_CHECK(probe_key_cols_.size() == 1 || probe_key_cols_.size() == 2);
  UOT_CHECK(residuals_.size() <= 4);
}

void ProbeHashOperator::ReceiveInputBlocks(int input_index,
                                           const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void ProbeHashOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool ProbeHashOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  UOT_CHECK(build_->hash_table() != nullptr);  // blocking edge: build done
  for (Block* block : input_.TakePending()) {
    auto wo = std::make_unique<ProbeHashWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void ProbeHashOperator::Finish() { destination_->Flush(); }

Schema ProbeHashOperator::OutputSchema(const Schema& probe_schema,
                                       const std::vector<int>& probe_output_cols,
                                       const Schema& build_schema,
                                       const std::vector<int>& payload_cols,
                                       JoinKind kind) {
  std::vector<Column> columns;
  for (int c : probe_output_cols) columns.push_back(probe_schema.column(c));
  if (kind == JoinKind::kInner) {
    for (int c : payload_cols) columns.push_back(build_schema.column(c));
  }
  return Schema(std::move(columns));
}

uint64_t ProbeHashOperator::MatchBatch(const Block& block,
                                       const JoinHashTable& table,
                                       uint32_t base, uint32_t m,
                                       uint32_t tid, int32_t op,
                                       ProbeScratch* scratch) const {
  const Schema& payload_schema = table.payload_schema();
  const size_t words = probe_key_cols_.size();
  const size_t num_res = residuals_.size();
  if (scratch->keys.size() < m * words) scratch->keys.resize(m * words);
  if (scratch->residual_vals.size() < num_res * m) {
    scratch->residual_vals.resize(num_res * m);
  }
  double* residual_vals = scratch->residual_vals.data();  // [rc * m + row]

  // Stage: columnar extraction of keys and probe-side residual values.
  int64_t t0 = exec_ctx_.StageStart();
  ExtractKeys(block, probe_key_cols_, base, m, scratch->keys.data());
  for (size_t rc = 0; rc < num_res; ++rc) {
    const ResidualCondition& cond = residuals_[rc];
    LoadNumericColumn(block.schema().column(cond.probe_col).type,
                      block.Column(cond.probe_col), base, m,
                      residual_vals + rc * m);
  }
  exec_ctx_.TraceStage(tid, op, obs::JoinBatchStage::kExtract, t0, m);

  // Stage: hash the whole batch, prefetch home slots ahead of the
  // resolving key, collect candidate matches.
  t0 = exec_ctx_.StageStart();
  std::vector<JoinMatch>& matches = scratch->matches;
  const uint64_t prefetches =
      table.ProbeBatch(scratch->keys.data(), m,
                       exec_ctx_.join.prefetch_distance, &scratch->hashes,
                       &matches);
  exec_ctx_.TraceStage(tid, op, obs::JoinBatchStage::kProbe, t0, m);

  // Stage: residual filter — compact `matches` in place, preserving order.
  if (num_res > 0 && !matches.empty()) {
    t0 = exec_ctx_.StageStart();
    size_t kept = 0;
    for (const JoinMatch& match : matches) {
      bool ok = true;
      for (size_t rc = 0; rc < num_res; ++rc) {
        const ResidualCondition& cond = residuals_[rc];
        const double build_val =
            cond.scale *
            LoadNumeric(payload_schema.column(cond.payload_col).type,
                        match.payload + payload_schema.offset(cond.payload_col));
        if (!CompareValues(cond.op, residual_vals[rc * m + match.row],
                           build_val)) {
          ok = false;
          break;
        }
      }
      if (ok) matches[kept++] = match;
    }
    matches.resize(kept);
    exec_ctx_.TraceStage(tid, op, obs::JoinBatchStage::kResidual, t0, m);
  }

  if (kind_ != JoinKind::kInner) {
    scratch->row_has_match.assign(m, uint8_t{0});
    for (const JoinMatch& match : matches) {
      scratch->row_has_match[match.row] = 1;
    }
  }
  return prefetches;
}

void ProbeHashOperator::CountBatches(uint64_t batches,
                                     uint64_t prefetches) const {
  if (exec_ctx_.join_probe_batches != nullptr) {
    exec_ctx_.join_probe_batches->Add(batches);
  }
  if (exec_ctx_.join_probe_prefetch_issued != nullptr && prefetches > 0) {
    exec_ctx_.join_probe_prefetch_issued->Add(prefetches);
  }
}

void ProbeHashWorkOrder::Execute() {
  ProbeHashOperator::ProbeScratch scratch;
  InsertDestination::Writer writer(op_->destination());
  op_->ProbeRows(*block_, *op_->build()->hash_table(), 0,
                 block_->num_rows(), 1 + static_cast<uint32_t>(worker_id),
                 operator_index, &scratch,
                 [&writer](const std::byte* row) { writer.AppendRow(row); });
}

}  // namespace uot
