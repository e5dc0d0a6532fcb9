#include "simsched/des_scheduler.h"

#include <algorithm>
#include <deque>
#include <queue>

namespace uot {
namespace {

struct Completion {
  double time;
  int op;
  uint64_t seq;  // tie-break for determinism

  bool operator>(const Completion& other) const {
    if (time != other.time) return time > other.time;
    if (op != other.op) return op > other.op;
    return seq > other.seq;
  }
};

struct OpRuntime {
  uint64_t ready = 0;        // generated, not yet started
  uint64_t running = 0;
  uint64_t completed = 0;
  uint64_t generated = 0;
  bool producer_done = true;  // false while a streaming producer still runs
  int blocking_remaining = 0;
  uint64_t buffered_blocks = 0;  // producer blocks awaiting UoT transfer
  double carry = 0.0;            // fractional consumer work orders

  // Statistics.
  double total_task = 0.0;
  double dop_time_integral = 0.0;
  double last_dop_ts = 0.0;
  double first_start = -1.0;
  double last_end = 0.0;
  bool finished = false;
};

}  // namespace

SimResult DesScheduler::Run(const std::vector<SimOperator>& ops,
                            const SimConfig& config) {
  UOT_CHECK(config.num_workers >= 1);
  const int n = static_cast<int>(ops.size());
  std::vector<OpRuntime> state(static_cast<size_t>(n));

  for (int i = 0; i < n; ++i) {
    const SimOperator& op = ops[static_cast<size_t>(i)];
    OpRuntime& s = state[static_cast<size_t>(i)];
    s.blocking_remaining = static_cast<int>(op.blocking_deps.size());
    if (op.streaming_producer < 0) {
      s.ready = op.num_work_orders;
      s.generated = op.num_work_orders;
    } else {
      s.producer_done = false;
    }
  }

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events;
  // Ready work orders in generation order: the engine's FIFO work queue.
  std::deque<int> ready_queue;
  int free_workers = config.num_workers;
  double now = 0.0;
  uint64_t seq = 0;

  // Enqueues `count` ready work orders of `op` unless it is still blocked
  // (blocked operators enqueue when their last dependency resolves).
  // Consumer work orders jump the queue, mirroring the engine scheduler:
  // transferred data is consumed eagerly while hot (paper Fig. 2).
  auto enqueue_ready = [&](int op, uint64_t count) {
    if (state[static_cast<size_t>(op)].blocking_remaining > 0) return;
    const bool consumer = ops[static_cast<size_t>(op)].streaming_producer >= 0;
    for (uint64_t i = 0; i < count; ++i) {
      if (consumer) {
        ready_queue.push_front(op);
      } else {
        ready_queue.push_back(op);
      }
    }
  };
  for (int i = 0; i < n; ++i) {
    enqueue_ready(i, state[static_cast<size_t>(i)].ready);
  }

  auto update_dop = [&](int op) {
    OpRuntime& s = state[static_cast<size_t>(op)];
    s.dop_time_integral +=
        static_cast<double>(s.running) * (now - s.last_dop_ts);
    s.last_dop_ts = now;
  };

  auto service_time = [&](int op) {
    const SimOperator& o = ops[static_cast<size_t>(op)];
    const double dop =
        static_cast<double>(state[static_cast<size_t>(op)].running);
    return o.work_ns * (1.0 + o.contention_alpha * (dop - 1.0)) +
           o.overhead_ns * (1.0 + o.sync_beta * (dop - 1.0));
  };

  // Dispatches ready work orders to free workers in FIFO (generation)
  // order, exactly like the engine's shared work queue.
  auto dispatch = [&] {
    while (free_workers > 0 && !ready_queue.empty()) {
      const int i = ready_queue.front();
      ready_queue.pop_front();
      OpRuntime& s = state[static_cast<size_t>(i)];
      UOT_DCHECK(s.blocking_remaining == 0 && s.ready > 0);
      update_dop(i);
      --s.ready;
      ++s.running;
      --free_workers;
      const double t = service_time(i);
      s.total_task += t;
      if (s.first_start < 0) s.first_start = now;
      events.push(Completion{now + t, i, seq++});
    }
  };

  // Transfers buffered producer blocks to the consumer per the UoT.
  auto maybe_transfer = [&](int producer, bool final_flush) {
    for (int i = 0; i < n; ++i) {
      const SimOperator& o = ops[static_cast<size_t>(i)];
      if (o.streaming_producer != producer) continue;
      OpRuntime& prod = state[static_cast<size_t>(producer)];
      OpRuntime& cons = state[static_cast<size_t>(i)];
      const uint64_t k = config.uot.blocks_per_transfer();
      while (prod.buffered_blocks >= k ||
             (final_flush && prod.buffered_blocks > 0)) {
        const uint64_t batch = std::min(prod.buffered_blocks, k);
        prod.buffered_blocks -= batch;
        cons.carry +=
            static_cast<double>(batch) * o.consumer_wo_per_block;
        const uint64_t whole = static_cast<uint64_t>(cons.carry);
        cons.carry -= static_cast<double>(whole);
        cons.ready += whole;
        cons.generated += whole;
        enqueue_ready(i, whole);
        if (batch < k && !final_flush) break;
      }
      if (final_flush) {
        // Round the fractional remainder into a final work order.
        if (cons.carry > 1e-9) {
          cons.ready += 1;
          cons.generated += 1;
          enqueue_ready(i, 1);
          cons.carry = 0.0;
        }
        cons.producer_done = true;
      }
    }
  };

  // An operator is complete when its work orders are exhausted and its
  // producer (if any) has finished.
  auto check_finished = [&](int op, auto&& self) -> void {
    OpRuntime& s = state[static_cast<size_t>(op)];
    if (s.finished) return;
    if (!s.producer_done || s.ready > 0 || s.running > 0) return;
    const SimOperator& o = ops[static_cast<size_t>(op)];
    if (o.streaming_producer < 0 && s.completed < s.generated) return;
    s.finished = true;
    s.last_end = now;
    maybe_transfer(op, /*final_flush=*/true);
    for (int i = 0; i < n; ++i) {
      const SimOperator& other = ops[static_cast<size_t>(i)];
      for (int dep : other.blocking_deps) {
        if (dep == op) {
          OpRuntime& blocked = state[static_cast<size_t>(i)];
          --blocked.blocking_remaining;
          if (blocked.blocking_remaining == 0) {
            enqueue_ready(i, blocked.ready);
          }
        }
      }
      // A consumer whose producer just finished may itself now be done
      // (e.g. empty input).
      if (other.streaming_producer == op) self(i, self);
    }
  };

  // Alternates dispatching and completion checks until a fixpoint: finish
  // cascades (empty inputs, final flushes) are at most `n` deep.
  auto settle = [&] {
    for (int pass = 0; pass < n + 2; ++pass) {
      dispatch();
      for (int i = 0; i < n; ++i) check_finished(i, check_finished);
    }
    dispatch();
  };

  settle();
  while (!events.empty()) {
    const Completion ev = events.top();
    events.pop();
    now = ev.time;
    OpRuntime& s = state[static_cast<size_t>(ev.op)];
    update_dop(ev.op);
    --s.running;
    ++s.completed;
    ++free_workers;
    s.last_end = now;
    // Each completed work order of a streaming producer emits one block.
    s.buffered_blocks += 1;
    maybe_transfer(ev.op, /*final_flush=*/false);
    settle();
  }

  SimResult result;
  result.makespan_ns = now;
  for (int i = 0; i < n; ++i) {
    const OpRuntime& s = state[static_cast<size_t>(i)];
    const SimOperator& o = ops[static_cast<size_t>(i)];
    SimOperatorResult r;
    r.name = o.name;
    r.work_orders = s.completed;
    r.total_task_ns = s.total_task;
    r.avg_task_ns = s.completed == 0
                        ? 0.0
                        : s.total_task / static_cast<double>(s.completed);
    const double span = s.last_end - (s.first_start < 0 ? 0 : s.first_start);
    r.avg_dop = span > 0 ? s.dop_time_integral / span : 0.0;
    r.first_start_ns = s.first_start < 0 ? 0.0 : s.first_start;
    r.last_end_ns = s.last_end;
    result.operators.push_back(std::move(r));
  }
  return result;
}

}  // namespace uot
