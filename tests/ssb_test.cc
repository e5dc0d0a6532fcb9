#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "exec/query_executor.h"
#include "ssb/ssb_queries.h"
#include "test_util.h"

namespace uot {
namespace {

class SsbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    storage_ = new StorageManager();
    db_ = new SsbDatabase(storage_);
    SsbConfig config;
    config.scale_factor = 0.003;
    config.block_bytes = 64 * 1024;
    db_->Generate(config);
  }
  static void TearDownTestSuite() {
    delete db_;
    delete storage_;
  }
  static StorageManager* storage_;
  static SsbDatabase* db_;
};

StorageManager* SsbTest::storage_ = nullptr;
SsbDatabase* SsbTest::db_ = nullptr;

TEST_F(SsbTest, CardinalitiesAndDimensions) {
  EXPECT_EQ(db_->lineorder().NumRows(), 18000u);  // 6M * 0.003
  EXPECT_EQ(db_->date().NumRows(), 7u * 365 + 2);  // 1992-1998, 2 leap yrs
  EXPECT_GT(db_->customer().NumRows(), 0u);
  EXPECT_GT(db_->supplier().NumRows(), 0u);
  EXPECT_GT(db_->part().NumRows(), 0u);
  // Dimensions are small relative to the fact table — the Section VI-B
  // property that makes SSB the low-UoT-friendly workload.
  EXPECT_LT(db_->customer().TotalBytes() + db_->supplier().TotalBytes() +
                db_->part().TotalBytes() + db_->date().TotalBytes(),
            db_->lineorder().TotalBytes());
}

TEST_F(SsbTest, DimensionTagsAreConsistent) {
  const Table& s = db_->supplier();
  for (uint64_t r = 0; r < s.NumRows(); r += 7) {
    const std::string nation = s.GetValue(r, ssb::kSNation).AsChar();
    const std::string city = s.GetValue(r, ssb::kSCity).AsChar();
    ASSERT_EQ(city.substr(0, 3), nation);  // city tag embeds the nation
    const int n = std::stoi(nation.substr(1));
    ASSERT_GE(n, 1);
    ASSERT_LE(n, 25);
    const std::string region = s.GetValue(r, ssb::kSRegion).AsChar();
    static const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                      "MIDEAST"};
    ASSERT_EQ(region, kRegions[(n - 1) / 5]);
  }
}

TEST_F(SsbTest, RevenueIsConsistentWithDiscount) {
  const Table& lo = db_->lineorder();
  for (uint64_t r = 0; r < lo.NumRows(); r += 997) {
    const double price = lo.GetValue(r, ssb::kLoExtendedprice).AsDouble();
    const int32_t disc = lo.GetValue(r, ssb::kLoDiscount).AsInt32();
    const double revenue = lo.GetValue(r, ssb::kLoRevenue).AsDouble();
    ASSERT_NEAR(revenue, price * (100 - disc) / 100.0, 1e-6);
  }
}

TEST_F(SsbTest, AllThirteenQueriesExecute) {
  PlanBuilderConfig plan_config;
  plan_config.block_bytes = 32 * 1024;
  ExecConfig exec;
  exec.num_workers = 2;
  exec.uot = UotPolicy::LowUot(1);
  for (int q : SupportedSsbQueries()) {
    auto plan = BuildSsbPlan(q, *db_, plan_config);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    EXPECT_GT(stats.records.size(), 0u) << "SSB Q" << q;
    ASSERT_NE(plan->result_table(), nullptr) << "SSB Q" << q;
  }
}

TEST_F(SsbTest, Q11MatchesDirectComputation) {
  PlanBuilderConfig plan_config;
  auto plan = BuildSsbPlan(11, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  ASSERT_EQ(plan->result_table()->NumRows(), 1u);
  const double engine = plan->result_table()->GetValue(0, 0).AsDouble();

  const Table& lo = db_->lineorder();
  double expected = 0;
  for (uint64_t r = 0; r < lo.NumRows(); ++r) {
    const int32_t date = lo.GetValue(r, ssb::kLoOrderdate).AsInt32();
    const int32_t disc = lo.GetValue(r, ssb::kLoDiscount).AsInt32();
    const int32_t qty = lo.GetValue(r, ssb::kLoQuantity).AsInt32();
    if (date / 10000 == 1993 && disc >= 1 && disc <= 3 && qty < 25) {
      expected +=
          lo.GetValue(r, ssb::kLoExtendedprice).AsDouble() * disc;
    }
  }
  EXPECT_NEAR(engine, expected, 1e-6 * std::max(1.0, expected));
}

TEST_F(SsbTest, ResultsInvariantAcrossUot) {
  PlanBuilderConfig plan_config;
  plan_config.block_bytes = 16 * 1024;
  std::map<int, std::string> expected;
  for (int q : SupportedSsbQueries()) {
    auto plan = BuildSsbPlan(q, *db_, plan_config);
    ExecConfig exec;
    exec.num_workers = 1;
    exec.uot = UotPolicy::HighUot();
    QueryExecutor::Execute(plan.get(), exec);
    expected[q] = CanonicalRows(*plan->result_table());
  }
  for (int q : SupportedSsbQueries()) {
    auto plan = BuildSsbPlan(q, *db_, plan_config);
    ExecConfig exec;
    exec.num_workers = 3;
    exec.uot = UotPolicy::LowUot(2);
    QueryExecutor::Execute(plan.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*plan->result_table()), expected[q]))
        << "SSB Q" << q;
  }
}

TEST_F(SsbTest, LipInvariantToo) {
  PlanBuilderConfig base;
  base.block_bytes = 16 * 1024;
  PlanBuilderConfig lip = base;
  lip.use_lip = true;
  ExecConfig exec;
  exec.num_workers = 2;
  for (int q : {21, 31, 41, 43}) {
    auto plan_a = BuildSsbPlan(q, *db_, base);
    auto plan_b = BuildSsbPlan(q, *db_, lip);
    QueryExecutor::Execute(plan_a.get(), exec);
    QueryExecutor::Execute(plan_b.get(), exec);
    EXPECT_TRUE(testing::CanonicalRowsNear(
        CanonicalRows(*plan_b->result_table()),
        CanonicalRows(*plan_a->result_table())))
        << "SSB Q" << q;
  }
}

TEST_F(SsbTest, ThreeColumnGroupingProducesCrossProduct) {
  // Q31 groups by (c_nation, s_nation, d_year): with ASIA on both sides
  // there are up to 5 x 5 nations x 6 years = 150 groups.
  PlanBuilderConfig plan_config;
  auto plan = BuildSsbPlan(31, *db_, plan_config);
  ExecConfig exec;
  exec.num_workers = 2;
  QueryExecutor::Execute(plan.get(), exec);
  const Table& result = *plan->result_table();
  EXPECT_GT(result.NumRows(), 25u);
  EXPECT_LE(result.NumRows(), 150u);
  EXPECT_EQ(result.schema().num_columns(), 4);
}

/// The paper's Section VI-B claim: with SSB's small dimension hash tables,
/// the low-UoT strategy has the lower memory overhead (the opposite of
/// TPC-H Q07). Intermediates are read per edge: a whole-table edge buffers
/// every block its producer emits, and a one-block UoT hands each block on
/// as soon as it is ready, so both high-water marks are exact functions of
/// plan and data, not of when the coordinator thread wakes.
TEST_F(SsbTest, LowUotHasLowerFootprintOnStarJoins) {
  PlanBuilderConfig plan_config;
  plan_config.block_bytes = 8 * 1024;
  uint64_t buffered_bytes[2] = {0, 0};
  int64_t ht_peak[2];
  int idx = 0;
  for (const bool whole_table : {false, true}) {
    auto plan = BuildSsbPlan(31, *db_, plan_config);
    ExecConfig exec;
    exec.num_workers = 1;
    exec.uot = whole_table ? UotPolicy::HighUot() : UotPolicy::LowUot(1);
    const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
    for (const EdgeStats& edge : stats.edges) {
      if (whole_table) {
        EXPECT_EQ(edge.max_buffered_blocks, edge.blocks_produced);
        EXPECT_EQ(edge.max_buffered_bytes, edge.bytes_delivered);
      } else {
        EXPECT_EQ(edge.max_buffered_blocks,
                  std::min<uint64_t>(edge.blocks_produced, 1));
        EXPECT_LE(edge.max_buffered_bytes, plan_config.block_bytes);
      }
      buffered_bytes[idx] += edge.max_buffered_bytes;
    }
    ht_peak[idx] = stats.PeakHashTableBytes();
    ++idx;
  }
  // Hash tables are identical; the high-UoT run additionally materializes
  // the wide fact-scan intermediate.
  EXPECT_NEAR(static_cast<double>(ht_peak[0]),
              static_cast<double>(ht_peak[1]),
              0.01 * static_cast<double>(ht_peak[1]));
  EXPECT_LT(buffered_bytes[0], buffered_bytes[1] / 2);
  // Low-UoT total overhead (hash tables, one block per edge) is below the
  // high-UoT overhead (materialized intermediates).
  EXPECT_LT(static_cast<uint64_t>(ht_peak[0]) + buffered_bytes[0],
            static_cast<uint64_t>(ht_peak[1]) + buffered_bytes[1]);
}

}  // namespace
}  // namespace uot
