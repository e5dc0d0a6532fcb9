#include <gtest/gtest.h>

#include "simsched/des_scheduler.h"

namespace uot {
namespace {

SimOperator LeafOp(const std::string& name, uint64_t wos, double work_ns,
                   double alpha = 0.0) {
  SimOperator op;
  op.name = name;
  op.num_work_orders = wos;
  op.work_ns = work_ns;
  op.contention_alpha = alpha;
  return op;
}

TEST(DesSchedulerTest, SingleOperatorSingleWorkerIsSequential) {
  SimConfig config;
  config.num_workers = 1;
  const SimResult r = DesScheduler::Run({LeafOp("op", 10, 1e6)}, config);
  EXPECT_DOUBLE_EQ(r.makespan_ns, 10e6);
  EXPECT_EQ(r.operators[0].work_orders, 10u);
  EXPECT_DOUBLE_EQ(r.operators[0].avg_task_ns, 1e6);
  EXPECT_NEAR(r.operators[0].avg_dop, 1.0, 1e-9);
}

TEST(DesSchedulerTest, PerfectScalabilityGivesLinearSpeedup) {
  SimConfig config;
  config.num_workers = 1;
  const double t1 =
      DesScheduler::Run({LeafOp("op", 40, 1e6)}, config).makespan_ns;
  config.num_workers = 4;
  const double t4 =
      DesScheduler::Run({LeafOp("op", 40, 1e6)}, config).makespan_ns;
  EXPECT_NEAR(t1 / t4, 4.0, 1e-6);
}

TEST(DesSchedulerTest, ContentionSaturatesSpeedup) {
  // The Fig. 9 shape: an operator probing a large hash table scales poorly.
  SimConfig config;
  auto run = [&](int workers, double alpha) {
    config.num_workers = workers;
    return DesScheduler::Run({LeafOp("probe", 200, 1e6, alpha)}, config)
        .makespan_ns;
  };
  const double good_speedup = run(1, 0.01) / run(16, 0.01);
  const double poor_speedup = run(1, 0.25) / run(16, 0.25);
  EXPECT_GT(good_speedup, 10.0);
  EXPECT_LT(poor_speedup, 5.0);
  EXPECT_LT(poor_speedup, good_speedup);
}

TEST(DesSchedulerTest, WorkConservation) {
  // Total busy time can never exceed workers * makespan.
  SimConfig config;
  config.num_workers = 3;
  const SimResult r = DesScheduler::Run(
      {LeafOp("a", 17, 1.3e6), LeafOp("b", 9, 0.7e6)}, config);
  double busy = 0;
  for (const auto& op : r.operators) busy += op.total_task_ns;
  EXPECT_LE(busy, 3.0 * r.makespan_ns + 1e-6);
  EXPECT_GE(busy, r.makespan_ns - 1e-6);
}

TEST(DesSchedulerTest, BlockingDependencySerializesOperators) {
  SimOperator build = LeafOp("build", 10, 1e6);
  SimOperator probe = LeafOp("probe", 10, 1e6);
  probe.blocking_deps = {0};
  SimConfig config;
  config.num_workers = 4;
  const SimResult r = DesScheduler::Run({build, probe}, config);
  EXPECT_GE(r.operators[1].first_start_ns,
            r.operators[0].last_end_ns - 1e-6);
}

TEST(DesSchedulerTest, StreamingConsumerFollowsProducer) {
  SimOperator producer = LeafOp("select", 20, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 0.5e6;
  consumer.streaming_producer = 0;
  consumer.consumer_wo_per_block = 1.0;
  SimConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::LowUot(1);
  const SimResult r = DesScheduler::Run({producer, consumer}, config);
  EXPECT_EQ(r.operators[1].work_orders, 20u);
  // With a low UoT the consumer starts while the producer still runs.
  EXPECT_LT(r.operators[1].first_start_ns, r.operators[0].last_end_ns);
}

TEST(DesSchedulerTest, WholeTableUotDefersConsumer) {
  SimOperator producer = LeafOp("select", 20, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 0.5e6;
  consumer.streaming_producer = 0;
  SimConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::HighUot();
  const SimResult r = DesScheduler::Run({producer, consumer}, config);
  EXPECT_EQ(r.operators[1].work_orders, 20u);
  EXPECT_GE(r.operators[1].first_start_ns,
            r.operators[0].last_end_ns - 1e-6);
}

TEST(DesSchedulerTest, LowUotReducesConsumerDop) {
  // The paper's Section IV-C3 interplay: small UoT -> CPU shared between
  // producer and consumer -> lower consumer DOP than the whole-table case.
  SimOperator producer = LeafOp("select", 40, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 1e6;
  consumer.streaming_producer = 0;
  SimConfig config;
  config.num_workers = 8;

  config.uot = UotPolicy::LowUot(1);
  const double dop_low =
      DesScheduler::Run({producer, consumer}, config).operators[1].avg_dop;
  config.uot = UotPolicy::HighUot();
  const double dop_high =
      DesScheduler::Run({producer, consumer}, config).operators[1].avg_dop;
  EXPECT_LT(dop_low, dop_high);
  EXPECT_NEAR(dop_high, 8.0, 0.5);
}

TEST(DesSchedulerTest, LowUotMoreResilientToPoorScalability) {
  // Fig. 10(b): with a poorly scaling consumer, the low-UoT schedule keeps
  // per-task times lower because its DOP stays lower.
  SimOperator producer = LeafOp("select", 64, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 1e6;
  consumer.contention_alpha = 0.3;  // poor scalability
  consumer.streaming_producer = 0;
  SimConfig config;
  config.num_workers = 16;

  config.uot = UotPolicy::LowUot(1);
  const double task_low = DesScheduler::Run({producer, consumer}, config)
                              .operators[1]
                              .avg_task_ns;
  config.uot = UotPolicy::HighUot();
  const double task_high = DesScheduler::Run({producer, consumer}, config)
                               .operators[1]
                               .avg_task_ns;
  EXPECT_LT(task_low, task_high);
}

TEST(DesSchedulerTest, SelectivityScalesConsumerWorkOrders) {
  SimOperator producer = LeafOp("select", 30, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 1e6;
  consumer.streaming_producer = 0;
  consumer.consumer_wo_per_block = 0.25;  // selective producer
  SimConfig config;
  config.num_workers = 2;
  const SimResult r = DesScheduler::Run({producer, consumer}, config);
  // ceil-ish accounting: 30 * 0.25 = 7.5 -> 7 + 1 final partial.
  EXPECT_GE(r.operators[1].work_orders, 7u);
  EXPECT_LE(r.operators[1].work_orders, 8u);
}

TEST(DesSchedulerTest, EmptyProducerCompletesPlan) {
  SimOperator producer = LeafOp("select", 0, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 1e6;
  consumer.streaming_producer = 0;
  SimConfig config;
  config.num_workers = 2;
  const SimResult r = DesScheduler::Run({producer, consumer}, config);
  EXPECT_EQ(r.operators[1].work_orders, 0u);
  EXPECT_DOUBLE_EQ(r.makespan_ns, 0.0);
}

TEST(DesSchedulerTest, OverheadTermAddsFixedCost) {
  SimOperator op = LeafOp("op", 10, 1e6);
  op.overhead_ns = 0.5e6;
  SimConfig config;
  config.num_workers = 1;
  const SimResult r = DesScheduler::Run({op}, config);
  EXPECT_DOUBLE_EQ(r.makespan_ns, 10 * 1.5e6);
}

TEST(DesSchedulerTest, DeterministicAcrossRuns) {
  SimOperator producer = LeafOp("select", 25, 1.1e6, 0.05);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 0.9e6;
  consumer.contention_alpha = 0.1;
  consumer.streaming_producer = 0;
  SimConfig config;
  config.num_workers = 5;
  const SimResult a = DesScheduler::Run({producer, consumer}, config);
  const SimResult b = DesScheduler::Run({producer, consumer}, config);
  EXPECT_DOUBLE_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_DOUBLE_EQ(a.operators[1].avg_dop, b.operators[1].avg_dop);
}

/// A UoT between the spectrum's ends groups blocks into transfers; the
/// final flush delivers the partial last group, so a block count that is
/// not a multiple of the UoT still yields every consumer work order.
TEST(DesSchedulerTest, GroupedUotConservesWork) {
  SimOperator producer = LeafOp("select", 41, 1e6);
  SimOperator consumer;
  consumer.name = "probe";
  consumer.work_ns = 0.5e6;
  consumer.streaming_producer = 0;
  consumer.consumer_wo_per_block = 1.0;
  SimConfig config;
  config.num_workers = 4;
  config.uot = UotPolicy::LowUot(4);
  const SimResult r = DesScheduler::Run({producer, consumer}, config);
  EXPECT_EQ(r.operators[1].work_orders, 41u);
  EXPECT_GT(r.makespan_ns, 0.0);
}

}  // namespace
}  // namespace uot
