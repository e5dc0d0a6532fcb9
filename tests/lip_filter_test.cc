#include <gtest/gtest.h>

#include <thread>

#include "exec/query_executor.h"
#include "test_util.h"
#include "join/lip_filter.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"
#include "util/random.h"

namespace uot {
namespace {

TEST(LipFilterTest, NoFalseNegatives) {
  LipFilter filter(10000);
  for (uint64_t k = 0; k < 10000; ++k) filter.Insert(k * 2654435761ULL);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_TRUE(filter.MightContain(k * 2654435761ULL)) << k;
  }
}

TEST(LipFilterTest, FalsePositiveRateBounded) {
  LipFilter filter(10000, 8);
  Random rng(1);
  for (int i = 0; i < 10000; ++i) filter.Insert(rng.Next());
  Random other(2);
  int false_positives = 0;
  constexpr int kProbes = 50000;
  for (int i = 0; i < kProbes; ++i) {
    if (filter.MightContain(other.Next())) ++false_positives;
  }
  // 8 bits/entry with 2 probes: expect a few percent.
  EXPECT_LT(static_cast<double>(false_positives) / kProbes, 0.10);
  EXPECT_GT(false_positives, 0);  // it is a Bloom filter, not a set
}

TEST(LipFilterTest, EmptyFilterRejectsEverything) {
  LipFilter filter(1000);
  Random rng(3);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    if (filter.MightContain(rng.Next())) ++hits;
  }
  EXPECT_EQ(hits, 0);
}

TEST(LipFilterTest, SizeScalesWithEntries) {
  LipFilter small(1000, 8);
  LipFilter large(100000, 8);
  EXPECT_GT(large.allocated_bytes(), 50 * small.allocated_bytes());
  EXPECT_EQ(small.num_bits(), 8000u);
}

TEST(LipFilterTest, ConcurrentInsertsKeepAllKeys) {
  LipFilter filter(40000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&filter, t] {
      for (uint64_t i = 0; i < 10000; ++i) {
        filter.Insert((t * 10000ULL + i) * 0x9E3779B97F4A7C15ULL);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (uint64_t k = 0; k < 40000; ++k) {
    ASSERT_TRUE(filter.MightContain(k * 0x9E3779B97F4A7C15ULL));
  }
}

class LipTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    storage_ = new StorageManager();
    db_ = new TpchDatabase(storage_);
    TpchConfig config;
    config.scale_factor = 0.004;
    config.block_bytes = 32 * 1024;
    db_->Generate(config);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete storage_;
  }
  static StorageManager* storage_;
  static TpchDatabase* db_;
};

StorageManager* LipTpchTest::storage_ = nullptr;
TpchDatabase* LipTpchTest::db_ = nullptr;

TEST_F(LipTpchTest, LipPlansProduceIdenticalResults) {
  // LIP is a pure pruning optimization: Bloom-filter false positives are
  // re-checked by the probe, so results never change.
  for (int query : {3, 5, 7, 8, 10, 19}) {
    TpchPlanConfig base_config;
    base_config.block_bytes = 16 * 1024;
    TpchPlanConfig lip_config = base_config;
    lip_config.use_lip = true;

    ExecConfig exec;
    exec.num_workers = 2;
    exec.uot = UotPolicy::LowUot(1);

    auto base_plan = BuildTpchPlan(query, *db_, base_config);
    auto lip_plan = BuildTpchPlan(query, *db_, lip_config);
    QueryExecutor::Execute(base_plan.get(), exec);
    QueryExecutor::Execute(lip_plan.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*lip_plan->result_table()),
        CanonicalRows(*base_plan->result_table())))
        << "Q" << query;
  }
}

TEST_F(LipTpchTest, LipShrinksMaterializedIntermediates) {
  // The Section VI-C claim: LIP pruning cuts the high-UoT strategy's
  // materialized intermediate substantially (Q7: supplier filter keeps
  // 2 of 25 nations). The intermediate is read per edge: a whole-table
  // edge buffers every block its producer emits, so its high-water mark is
  // the edge's whole payload, an exact function of plan and data.
  uint64_t buffered_bytes[2] = {0, 0};
  int idx = 0;
  for (const bool use_lip : {false, true}) {
    TpchPlanConfig config;
    config.block_bytes = 4 * 1024;  // fine blocks so sizes track rows
    config.use_lip = use_lip;
    auto plan = BuildTpchPlan(7, *db_, config);
    ExecConfig exec;
    exec.num_workers = 1;
    exec.uot = UotPolicy::HighUot();
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    for (const EdgeStats& edge : stats.edges) {
      EXPECT_EQ(edge.max_buffered_blocks, edge.blocks_produced);
      EXPECT_EQ(edge.max_buffered_bytes, edge.bytes_delivered);
      buffered_bytes[idx] += edge.max_buffered_bytes;
    }
    ++idx;
  }
  EXPECT_LT(buffered_bytes[1], buffered_bytes[0] / 2);
}

TEST_F(LipTpchTest, LipReducesConsumerWorkOrders) {
  for (const bool use_lip : {false, true}) {
    SCOPED_TRACE(use_lip);
  }
  uint64_t probe_tasks[2];
  int idx = 0;
  for (const bool use_lip : {false, true}) {
    TpchPlanConfig config;
    config.block_bytes = 4 * 1024;
    config.use_lip = use_lip;
    auto plan = BuildTpchPlan(7, *db_, config);
    int first_probe = -1;
    for (int i = 0; i < plan->num_operators(); ++i) {
      if (plan->op(i)->name() == "probe(supplier)") first_probe = i;
    }
    ASSERT_GE(first_probe, 0);
    ExecConfig exec;
    exec.num_workers = 2;
    exec.uot = UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    probe_tasks[idx++] =
        stats.operators[static_cast<size_t>(first_probe)].num_work_orders;
  }
  // Far fewer select-output blocks reach the probe when LIP prunes.
  EXPECT_LT(probe_tasks[1], probe_tasks[0] / 2);
}

}  // namespace
}  // namespace uot
