// Differential parity harness for the hash join: seeded randomized join
// trees execute at {2-block, model-annotated, whole-table} UoT and every
// configuration must produce byte-identical sorted results, with per-edge
// transfer-count invariants holding on every run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "plan/query_plan.h"
#include "scheduler/execution_stats.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace uot {
namespace {

using ::uot::testing::RandomJoinQuery;

enum class PolicyMode { kFixed, kModel, kWholeTable };

const char* PolicyName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kFixed:
      return "fixed";
    case PolicyMode::kModel:
      return "model";
    case PolicyMode::kWholeTable:
      return "whole-table";
  }
  return "?";
}

/// Pins every edge to the cost model's static choice. The estimates are
/// deliberately rough (the harness checks parity, not calibration); what
/// matters is that annotation paths execute on randomized plans.
void AnnotateWithModel(QueryPlan* plan) {
  CostModelUotChooser chooser;
  std::vector<EdgeEstimate> estimates;
  for (size_t i = 0; i < plan->streaming_edges().size(); ++i) {
    EdgeEstimate est;
    est.rows = 512;
    est.row_bytes = 24.0;
    estimates.push_back(est);
  }
  CostModelUotChooser::AnnotatePlan(plan,
                                    chooser.ChoosePlan(*plan, estimates));
}

/// Transfer-count invariants that must hold on every run regardless of
/// UoT.
void CheckTransferInvariants(const QueryPlan& plan,
                             const ExecutionStats& stats,
                             const std::string& label) {
  ASSERT_EQ(stats.edges.size(), plan.streaming_edges().size()) << label;
  for (size_t e = 0; e < stats.edges.size(); ++e) {
    const EdgeStats& es = stats.edges[e];
    // Every produced block is eventually delivered, exactly once.
    EXPECT_EQ(es.blocks_delivered, es.blocks_produced)
        << label << " edge " << e;
    if (es.blocks_produced > 0) {
      // A transfer carries at least one block and at most all of them.
      EXPECT_GE(es.transfers, 1u) << label << " edge " << e;
      EXPECT_LE(es.transfers, es.blocks_produced) << label << " edge " << e;
    } else {
      EXPECT_EQ(es.transfers, 0u) << label << " edge " << e;
    }
  }
}

std::string RunOnce(StorageManager* storage, const RandomJoinQuery& query,
                    PolicyMode policy) {
  const std::string label = query.Description() + " " + PolicyName(policy);
  std::unique_ptr<QueryPlan> plan = query.MakePlan(storage);
  if (policy == PolicyMode::kModel) AnnotateWithModel(plan.get());

  ExecConfig config;
  config.num_workers = 2;
  config.uot = policy == PolicyMode::kWholeTable ? UotPolicy::HighUot()
                                                 : UotPolicy::LowUot(2);
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);
  CheckTransferInvariants(*plan, stats, label);
  // Each edge runs at its plan pin, else at the session's UoT.
  std::vector<uint64_t> per_edge_k;
  for (size_t e = 0; e < plan->streaming_edges().size(); ++e) {
    per_edge_k.push_back(plan->edge_uot(static_cast<int>(e))
                             .value_or(config.uot)
                             .blocks_per_transfer());
  }
  EXPECT_TRUE(testing::TransfersFollowUot(stats, per_edge_k)) << label;
  return CanonicalRows(*plan->result_table());
}

int NumFuzzSeeds() {
  // 200 seeds by default; UOT_FUZZ_SEEDS overrides (e.g. deeper soak
  // runs, or quicker local iteration).
  if (const char* env = std::getenv("UOT_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

TEST(JoinTreeParityTest, SeededRandomPlansAreByteIdenticalAcrossUot) {
  const int num_seeds = NumFuzzSeeds();
  for (int seed = 0; seed < num_seeds; ++seed) {
    StorageManager storage;
    RandomJoinQuery query(&storage, static_cast<uint64_t>(seed));
    SCOPED_TRACE(query.Description());

    // Reference: fixed UoT; every other point of the UoT axis must match.
    const std::string expected = RunOnce(&storage, query, PolicyMode::kFixed);
    for (PolicyMode policy : {PolicyMode::kModel, PolicyMode::kWholeTable}) {
      EXPECT_EQ(RunOnce(&storage, query, policy), expected)
          << PolicyName(policy);
    }
  }
}

}  // namespace
}  // namespace uot
