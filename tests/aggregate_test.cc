// Aggregation kernel tests: every result of AggregateOperator is checked
// against a row-at-a-time std::map reference evaluated in this file, across
// 0-3 group columns of every key type, all five aggregate functions
// (negative inputs included), group counts large enough to grow both the
// work orders' partial tables and the merge shards, racing merges from
// four workers on small blocks, and the fused select -> aggregate chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "plan/plan_builder.h"
#include "storage/storage_manager.h"
#include "test_util.h"
#include "types/row_builder.h"

namespace uot {
namespace {

using ::uot::testing::FuzzRng;

// Input columns.
constexpr int kK32 = 0;    // INT32 key
constexpr int kK64 = 1;    // INT64 key
constexpr int kKDate = 2;  // DATE key
constexpr int kKChar = 3;  // CHAR(6) key
constexpr int kV = 4;      // DOUBLE value, negative and positive
constexpr int kW = 5;      // INT32 value, negative and positive

/// Distinct values per key column. `k64` is drawn from [0, k64_domain).
struct KeyDomains {
  int64_t k32 = 40;
  int64_t k64 = 60;
  int64_t date = 30;
  int64_t chars = 12;
};

std::unique_ptr<Table> MakeInput(StorageManager* storage, uint64_t rows,
                                 const KeyDomains& domains, size_t block_bytes,
                                 uint64_t seed) {
  Schema schema({{"k32", Type::Int32()},
                 {"k64", Type::Int64()},
                 {"kdate", Type::Date()},
                 {"kchar", Type::Char(6)},
                 {"v", Type::Double()},
                 {"w", Type::Int32()}});
  auto table = std::make_unique<Table>("in", schema, Layout::kRowStore,
                                       block_bytes, storage,
                                       MemoryCategory::kBaseTable);
  static const char* const kWords[] = {"",   "a",    "b",      "ab",
                                       "ba", "zz",   "abc",    "x y",
                                       "q",  "long", "sixsix", "six"};
  FuzzRng rng(seed);
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < rows; ++i) {
    row.SetInt32(kK32, static_cast<int32_t>(
                           rng.Range(-domains.k32 / 2, domains.k32 / 2 - 1)));
    // Spread INT64 keys over the full word, sign bit included.
    row.SetInt64(kK64, (rng.Range(0, domains.k64 - 1) - domains.k64 / 2) *
                           1000003LL * 1000003LL);
    row.SetDate(kKDate, static_cast<int32_t>(
                            8000 + rng.Range(0, domains.date - 1)));
    row.SetChar(kKChar, kWords[rng.Range(0, domains.chars - 1)]);
    // Quarter steps are exact in binary, so every sum is exact whatever
    // the merge order and a 1e-9 relative bound also holds near zero.
    row.SetDouble(kV, static_cast<double>(rng.Range(-4000, 4000)) / 4.0);
    row.SetInt32(kW, static_cast<int32_t>(rng.Range(-500, 500)));
    table->AppendRow(row.data());
  }
  return table;
}

/// COUNT(*), then SUM/MIN/MAX/AVG over v, w and v + w.
std::vector<AggSpec> AllAggregates() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFn::kCount, nullptr, "cnt"});
  for (int input = 0; input < 3; ++input) {
    const auto expr = [input]() -> std::unique_ptr<Scalar> {
      if (input == 0) return Col(kV, Type::Double());
      if (input == 1) return Col(kW, Type::Int32());
      return Add(Col(kV, Type::Double()), Col(kW, Type::Int32()));
    };
    const std::string suffix = std::to_string(input);
    aggs.push_back({AggFn::kSum, expr(), "sum" + suffix});
    aggs.push_back({AggFn::kMin, expr(), "min" + suffix});
    aggs.push_back({AggFn::kMax, expr(), "max" + suffix});
    aggs.push_back({AggFn::kAvg, expr(), "avg" + suffix});
  }
  return aggs;
}

/// Row filter of the select (and of the aggregate's fused predicate):
/// v >= -750 keeps about 90% of the rows.
constexpr double kVMin = -750.0;
std::unique_ptr<Predicate> Filter() {
  return Cmp(CompareOp::kGe, Col(kV, Type::Double()), LitDouble(kVMin));
}

/// Aggregate values of one group, in AllAggregates() order.
using GroupValues = std::vector<double>;
using GroupResult = std::map<std::vector<std::string>, GroupValues>;

/// The row-at-a-time reference: one std::map entry per group, updated row
/// by row with plain double arithmetic.
GroupResult Reference(const Table& input, const std::vector<int>& group_cols,
                      bool filtered) {
  struct Acc {
    int64_t count = 0;
    double sum[3] = {0, 0, 0};
    double min[3] = {INFINITY, INFINITY, INFINITY};
    double max[3] = {-INFINITY, -INFINITY, -INFINITY};
  };
  std::map<std::vector<std::string>, Acc> groups;
  for (uint64_t r = 0; r < input.NumRows(); ++r) {
    const double v = input.GetValue(r, kV).AsDouble();
    if (filtered && !(v >= kVMin)) continue;
    const double w = static_cast<double>(input.GetValue(r, kW).AsInt32());
    std::vector<std::string> key;
    for (int c : group_cols) key.push_back(input.GetValue(r, c).ToString());
    Acc& acc = groups[key];
    ++acc.count;
    const double in[3] = {v, w, v + w};
    for (int i = 0; i < 3; ++i) {
      acc.sum[i] += in[i];
      acc.min[i] = std::min(acc.min[i], in[i]);
      acc.max[i] = std::max(acc.max[i], in[i]);
    }
  }
  GroupResult out;
  for (const auto& [key, acc] : groups) {
    GroupValues& values = out[key];
    values.push_back(static_cast<double>(acc.count));
    for (int i = 0; i < 3; ++i) {
      values.push_back(acc.sum[i]);
      values.push_back(acc.min[i]);
      values.push_back(acc.max[i]);
      values.push_back(acc.sum[i] / static_cast<double>(acc.count));
    }
  }
  return out;
}

GroupResult ReadResult(const Table& result, size_t num_group_cols) {
  GroupResult out;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    std::vector<std::string> key;
    for (size_t c = 0; c < num_group_cols; ++c) {
      key.push_back(result.GetValue(r, static_cast<int>(c)).ToString());
    }
    GroupValues values;
    const int first_agg = static_cast<int>(num_group_cols);
    values.push_back(
        static_cast<double>(result.GetValue(r, first_agg).AsInt64()));
    for (int c = first_agg + 1; c < result.schema().num_columns(); ++c) {
      values.push_back(result.GetValue(r, c).AsDouble());
    }
    EXPECT_TRUE(out.emplace(std::move(key), std::move(values)).second)
        << "group emitted twice";
  }
  return out;
}

void ExpectMatches(const GroupResult& actual, const GroupResult& expected,
                   const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  int mismatches = 0;
  for (const auto& [key, want] : expected) {
    const auto it = actual.find(key);
    ASSERT_TRUE(it != actual.end()) << label << ": missing group";
    const GroupValues& got = it->second;
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t a = 0; a < want.size(); ++a) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(want[a]));
      if (std::fabs(got[a] - want[a]) > tol && ++mismatches <= 5) {
        ADD_FAILURE() << label << ": aggregate " << a << " got " << got[a]
                      << " want " << want[a];
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << label;
}

enum class Shape {
  kBaseTable,         // aggregate attached to the base table
  kFusedPredicate,    // same, with the filter as the aggregate's predicate
  kSelectVectorized,  // select -> aggregate over a streaming edge
  kSelectFused,       // select -> aggregate as one fused chain
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kBaseTable:
      return "base-table";
    case Shape::kFusedPredicate:
      return "fused-predicate";
    case Shape::kSelectVectorized:
      return "select-vectorized";
    case Shape::kSelectFused:
      return "select-fused";
  }
  return "?";
}

/// Reference results for one grouping, without and with the filter.
struct References {
  GroupResult all;
  GroupResult filtered;
};

References MakeReferences(const Table& input,
                          const std::vector<int>& group_cols) {
  return References{Reference(input, group_cols, false),
                    Reference(input, group_cols, true)};
}

/// Runs one aggregate plan over `input` with 4 workers and checks it
/// against the reference.
void RunAndCheck(StorageManager* storage, const Table& input,
                 const std::vector<int>& group_cols, Shape shape,
                 size_t temp_block_bytes, const References& refs) {
  std::string label = std::string(ShapeName(shape)) + " group_cols={";
  for (int c : group_cols) label += std::to_string(c) + ",";
  label += "}";
  SCOPED_TRACE(label);

  PlanBuilderConfig config;
  config.block_bytes = temp_block_bytes;
  PlanBuilder builder(storage, config);
  PlanBuilder::Src agg;
  if (shape == Shape::kBaseTable || shape == Shape::kFusedPredicate) {
    agg = builder.Aggregate(
        "agg", PlanBuilder::Base(input), group_cols, AllAggregates(),
        shape == Shape::kFusedPredicate ? Filter() : nullptr);
  } else {
    std::vector<int> all_cols;
    for (int c = 0; c < input.schema().num_columns(); ++c) {
      all_cols.push_back(c);
    }
    PlanBuilder::Src sel =
        builder.Select("sel", PlanBuilder::Base(input), Filter(),
                       Projection::Identity(input.schema(), all_cols));
    agg = builder.Aggregate("agg", sel, group_cols, AllAggregates());
    if (shape == Shape::kSelectFused) {
      builder.AnnotateFusedPipeline({sel, agg});
    }
  }
  std::unique_ptr<QueryPlan> plan = builder.Finish(agg);

  ExecConfig exec;
  exec.num_workers = 4;
  exec.uot = UotPolicy::LowUot(1);
  exec.pipeline_mode = shape == Shape::kSelectFused ? PipelineMode::kFused
                                                    : PipelineMode::kVectorized;
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), exec);
  EXPECT_EQ(stats.fused_chains.size(), shape == Shape::kSelectFused ? 1u : 0u);

  ExpectMatches(ReadResult(*plan->result_table(), group_cols.size()),
                shape == Shape::kBaseTable ? refs.all : refs.filtered, label);
}

constexpr Shape kAllShapes[] = {Shape::kBaseTable, Shape::kFusedPredicate,
                                Shape::kSelectVectorized, Shape::kSelectFused};

TEST(AggregateKernelTest, EveryKeyWidthAndTypeMatchesReference) {
  StorageManager storage;
  const std::unique_ptr<Table> input =
      MakeInput(&storage, 20000, KeyDomains{}, 4096, 1);
  const std::vector<std::vector<int>> group_sets = {
      {},
      {kK32},
      {kK64},
      {kKDate},
      {kKChar},
      {kK32, kKChar},
      {kKDate, kK64},
      {kK32, kK64, kKChar},
      {kKChar, kKDate, kK32},
  };
  for (const std::vector<int>& group_cols : group_sets) {
    const References refs = MakeReferences(*input, group_cols);
    for (const Shape shape : kAllShapes) {
      RunAndCheck(&storage, *input, group_cols, shape, 4096, refs);
    }
  }
}

TEST(AggregateKernelTest, MoreThan100kGroupsGrowPartialsAndShards) {
  // About 130k distinct (k64, k32) pairs over 150k rows: every block's
  // partial holds mostly new groups and each merge shard rehashes several
  // times.
  StorageManager storage;
  KeyDomains domains;
  domains.k64 = 100000;
  domains.k32 = 4;
  const std::unique_ptr<Table> input =
      MakeInput(&storage, 150000, domains, 64 * 1024, 2);
  const References refs = MakeReferences(*input, {kK64, kK32});
  EXPECT_GT(refs.all.size(), 100000u);
  for (const Shape shape : {Shape::kBaseTable, Shape::kSelectFused}) {
    RunAndCheck(&storage, *input, {kK64, kK32}, shape, 64 * 1024, refs);
  }
}

TEST(AggregateKernelTest, RacingMergesOnSmallBlocks) {
  // ~30-row blocks: hundreds of work orders, each merging a partial that
  // touches most of the ~600 groups, from four workers at once.
  StorageManager storage;
  KeyDomains domains;
  domains.k32 = 50;
  domains.chars = 12;
  const std::unique_ptr<Table> input =
      MakeInput(&storage, 12000, domains, 1024, 3);
  const References refs = MakeReferences(*input, {kK32, kKChar});
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const Shape shape : kAllShapes) {
      RunAndCheck(&storage, *input, {kK32, kKChar}, shape, 1024, refs);
    }
  }
}

TEST(AggregateKernelTest, ScalarAggregateOverEmptyInputEmitsEmptyGroup) {
  StorageManager storage;
  const std::unique_ptr<Table> input =
      MakeInput(&storage, 0, KeyDomains{}, 4096, 4);
  PlanBuilderConfig config;
  PlanBuilder builder(&storage, config);
  PlanBuilder::Src agg =
      builder.Aggregate("agg", PlanBuilder::Base(*input), {}, AllAggregates());
  std::unique_ptr<QueryPlan> plan = builder.Finish(agg);
  QueryExecutor::Execute(plan.get(), ExecConfig());
  const Table& result = *plan->result_table();
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.GetValue(0, 0).AsInt64(), 0);
  EXPECT_EQ(result.GetValue(0, 1).AsDouble(), 0.0);  // SUM
  EXPECT_EQ(result.GetValue(0, 4).AsDouble(), 0.0);  // AVG
}

}  // namespace
}  // namespace uot
