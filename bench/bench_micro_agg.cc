// Aggregation-kernel microbench: the aggregate alone on real TPC-H
// lineitem columns, shaped like Hyrise's TPCHDataMicroBenchmarkFixture —
// generate lineitem once, then time only AggregateOperator's work orders
// (Accumulate into a partial plus MergePartial into the shards) on three
// group shapes:
//   q1   (l_returnflag, l_linestatus), 4 groups, 8 aggregates, filtered
//   q17  l_partkey, one AVG — a group per part, keys in random order
//   q18  l_orderkey, one SUM — a group per order, keys clustered
// at 1 and 4 workers. Each sample is one pass over every lineitem block by
// `workers` long-lived threads pulling blocks from a shared cursor; Finish
// (writing the groups out) is not timed. Shapes and worker counts are interleaved
// within each repeat, and the median and IQR of the repeats are reported.
//
// Emits BENCH_aggregate.json. UOT_AGG_BENCH_SMALL=1 drops to SF 0.01 so
// CI can smoke-test the emitter in seconds; UOT_SF / UOT_RUNS override the
// scale factor (default 0.1) and the repeat count (default 9).

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "operators/aggregate_operator.h"
#include "storage/insert_destination.h"
#include "tpch/tpch_schema.h"
#include "types/date.h"
#include "util/timer.h"

namespace {

using namespace uot;
using namespace uot::bench;
using tpch::LineitemCol;

struct AggShape {
  std::string name;
  std::vector<int> group_cols;
  std::function<std::vector<AggSpec>(const Schema&)> aggs;
  std::function<std::unique_ptr<Predicate>(const Schema&)> predicate;
};

std::unique_ptr<Scalar> C(const Schema& s, int col) {
  return Col(col, s.column(col).type);
}

std::vector<AggShape> Shapes() {
  std::vector<AggShape> shapes;
  shapes.push_back(AggShape{
      "q1",
      {LineitemCol::kLReturnflag, LineitemCol::kLLinestatus},
      [](const Schema& l) {
        const auto revenue = [&l] {
          return Mul(C(l, LineitemCol::kLExtendedprice),
                     Sub(LitDouble(1.0), C(l, LineitemCol::kLDiscount)));
        };
        std::vector<AggSpec> aggs;
        aggs.push_back({AggFn::kSum, C(l, LineitemCol::kLQuantity), "a"});
        aggs.push_back({AggFn::kSum, C(l, LineitemCol::kLExtendedprice), "b"});
        aggs.push_back({AggFn::kSum, revenue(), "c"});
        aggs.push_back(
            {AggFn::kSum,
             Mul(revenue(), Add(LitDouble(1.0), C(l, LineitemCol::kLTax))),
             "d"});
        aggs.push_back({AggFn::kAvg, C(l, LineitemCol::kLQuantity), "e"});
        aggs.push_back({AggFn::kAvg, C(l, LineitemCol::kLExtendedprice), "f"});
        aggs.push_back({AggFn::kAvg, C(l, LineitemCol::kLDiscount), "g"});
        aggs.push_back({AggFn::kCount, nullptr, "h"});
        return aggs;
      },
      [](const Schema& l) -> std::unique_ptr<Predicate> {
        return Cmp(CompareOp::kLe, C(l, LineitemCol::kLShipdate),
                   LitDate(MakeDate(1998, 12, 1) - 90));
      }});
  shapes.push_back(AggShape{
      "q17",
      {LineitemCol::kLPartkey},
      [](const Schema& l) {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggFn::kAvg, C(l, LineitemCol::kLQuantity), "a"});
        return aggs;
      },
      nullptr});
  shapes.push_back(AggShape{
      "q18",
      {LineitemCol::kLOrderkey},
      [](const Schema& l) {
        std::vector<AggSpec> aggs;
        aggs.push_back({AggFn::kSum, C(l, LineitemCol::kLQuantity), "a"});
        return aggs;
      },
      nullptr});
  return shapes;
}

/// Worker threads that live across samples, so a sample times the work
/// orders and not thread start-up (a fresh thread also starts with cold
/// malloc and scratch arenas, which the engine's pool workers never do).
class WorkerTeam {
 public:
  explicit WorkerTeam(int size) {
    for (int id = 0; id < size; ++id) {
      threads_.emplace_back([this, id] { Loop(id); });
    }
  }

  ~WorkerTeam() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs `job` on the first `n` workers and waits until all return.
  void Run(int n, const std::function<void()>& job) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &job;
    active_ = n;
    pending_ = n;
    ++generation_;
    start_.notify_all();
    done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Loop(int id) {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      start_.wait(lock, [&] { return generation_ != seen; });
      seen = generation_;
      if (stop_) return;
      if (id >= active_) continue;
      const std::function<void()>* job = job_;
      lock.unlock();
      (*job)();
      lock.lock();
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  std::vector<std::thread> threads_;
  const std::function<void()>* job_ = nullptr;
  uint64_t generation_ = 0;
  int active_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

struct Sample {
  double ms = 0.0;
  uint64_t groups = 0;
};

/// One pass of `shape` over every block of `lineitem` with `workers`
/// threads of `team`; times the work orders only.
Sample RunOnce(const AggShape& shape, const Table& lineitem, int workers,
               WorkerTeam* team, StorageManager* storage) {
  const Schema& l = lineitem.schema();
  std::vector<AggSpec> aggs = shape.aggs(l);
  Table out("agg.out",
            AggregateOperator::OutputSchema(l, shape.group_cols, aggs),
            Layout::kRowStore, 1 << 20, storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(storage, &out, nullptr);
  AggregateOperator op("agg", l, shape.group_cols, std::move(aggs),
                       shape.predicate ? shape.predicate(l) : nullptr, &dest);

  const std::vector<Block*>& blocks = lineitem.blocks();
  std::atomic<size_t> cursor{0};
  const std::function<void()> work = [&] {
    for (size_t b = cursor.fetch_add(1); b < blocks.size();
         b = cursor.fetch_add(1)) {
      AggregateWorkOrder(blocks[b], &op).Execute();
    }
  };
  Timer timer;
  team->Run(workers, work);
  Sample sample;
  sample.ms = timer.ElapsedMillis();
  op.Finish();
  sample.groups = out.NumRows();
  return sample;
}

}  // namespace

int main() {
  const bool small = std::getenv("UOT_AGG_BENCH_SMALL") != nullptr;
  const double sf = std::getenv("UOT_SF") != nullptr ? ScaleFactor()
                    : small                          ? 0.01
                                                     : 0.1;
  const int runs = std::getenv("UOT_RUNS") != nullptr ? Runs() : 9;
  const std::vector<int> worker_counts = {1, 4};

  std::printf("Aggregation kernel microbench (SF=%.3f, %zuKB blocks, %d "
              "interleaved repeats)\n",
              sf, LargeBlockBytes() / 1024, runs);
  TpchFixture fixture(sf, Layout::kColumnStore, LargeBlockBytes());
  const Table& lineitem = fixture.db().lineitem();
  const std::vector<AggShape> shapes = Shapes();

  // samples[shape][worker index]
  std::vector<std::vector<std::vector<double>>> samples(
      shapes.size(), std::vector<std::vector<double>>(worker_counts.size()));
  std::vector<uint64_t> groups(shapes.size(), 0);
  WorkerTeam team(worker_counts.back());
  for (int r = 0; r < runs; ++r) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      for (size_t w = 0; w < worker_counts.size(); ++w) {
        const Sample sample = RunOnce(shapes[s], lineitem, worker_counts[w],
                                      &team, fixture.storage());
        samples[s][w].push_back(sample.ms);
        groups[s] = sample.groups;
      }
    }
  }

  BenchJson json("aggregate");
  json.Set("scale_factor", sf);
  json.Set("block_bytes", static_cast<double>(LargeBlockBytes()));
  json.Set("repeats", runs);
  json.Set("lineitem_rows", static_cast<double>(lineitem.NumRows()));
  json.Set("lineitem_blocks", static_cast<double>(lineitem.blocks().size()));
  SetMachineInfo(&json);
  std::printf("%-6s %10s %8s %14s %14s\n", "shape", "groups", "workers",
              "median_ms", "iqr_ms");
  for (size_t s = 0; s < shapes.size(); ++s) {
    json.Set(shapes[s].name + "_groups", static_cast<double>(groups[s]));
    for (size_t w = 0; w < worker_counts.size(); ++w) {
      const Spread spread = Quartiles(samples[s][w]);
      const std::string key =
          shapes[s].name + "_w" + std::to_string(worker_counts[w]);
      json.Set(key + "_ms", spread.median);
      json.Set(key + "_ms_iqr", spread.iqr());
      std::printf("%-6s %10llu %8d %14.2f %14.2f\n", shapes[s].name.c_str(),
                  static_cast<unsigned long long>(groups[s]),
                  worker_counts[w], spread.median, spread.iqr());
    }
  }
  json.Write();
  return 0;
}
