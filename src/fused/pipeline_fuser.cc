#include "fused/pipeline_fuser.h"

#include <map>

#include "operators/aggregate_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"

namespace uot {
namespace fused {
namespace {

/// True when `op` may produce into a fused chain (its work is re-runnable
/// per row group and its output can be skipped).
bool IsFusableProducer(const Operator* op) {
  return dynamic_cast<const SelectOperator*>(op) != nullptr ||
         dynamic_cast<const ProbeHashOperator*>(op) != nullptr;
}

/// True when `op` may consume inside a fused chain (interior or tail).
bool IsFusableConsumer(const Operator* op) {
  if (dynamic_cast<const AggregateOperator*>(op) != nullptr) return true;
  return IsFusableProducer(op);
}

}  // namespace

bool PipelineFuser::IsFusableEdge(const QueryPlan& plan,
                                  const QueryPlan::StreamingEdge& edge) {
  if (edge.consumer_input != 0) return false;
  if (!IsFusableProducer(plan.op(edge.producer))) return false;
  if (!IsFusableConsumer(plan.op(edge.consumer))) return false;
  // The producer's output must flow only into this edge, and the consumer
  // must have no other streaming input (multi-input consumers like
  // sort-merge join cannot run one-input-row-at-a-time).
  int producer_out = 0;
  int consumer_in = 0;
  for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
    if (e.producer == edge.producer) ++producer_out;
    if (e.consumer == edge.consumer) ++consumer_in;
  }
  if (producer_out != 1 || consumer_in != 1) return false;
  // Interior outputs are skipped entirely, so they must not be the query
  // result (and must exist: an unregistered destination means the operator
  // is not a block producer in the usual sense).
  const InsertDestination* dest = plan.destination_of(edge.producer);
  if (dest == nullptr || dest->output() == plan.result_table()) return false;
  return true;
}

std::vector<std::vector<int>> PipelineFuser::DetectFusablePipelines(
    const QueryPlan& plan) {
  // Fusable successor per operator (-1 = none); unique by the
  // single-consumer/single-input requirement of IsFusableEdge.
  std::map<int, int> next;
  std::map<int, int> prev;
  for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
    if (!IsFusableEdge(plan, e)) continue;
    next[e.producer] = e.consumer;
    prev[e.consumer] = e.producer;
  }
  std::vector<std::vector<int>> chains;
  for (const auto& [head, second] : next) {
    if (prev.count(head) != 0) continue;  // not a chain head
    std::vector<int> chain{head};
    int cur = second;
    while (true) {
      chain.push_back(cur);
      auto it = next.find(cur);
      if (it == next.end()) break;
      cur = it->second;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

bool PipelineFuser::IsFusableChain(const QueryPlan& plan,
                                   const std::vector<int>& ops) {
  if (ops.size() < 2) return false;
  for (const int op : ops) {
    if (op < 0 || op >= plan.num_operators()) return false;
  }
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    const int edge = plan.FindStreamingEdge(ops[i], ops[i + 1]);
    if (edge < 0) return false;
    if (!IsFusableEdge(plan, plan.streaming_edges()[static_cast<size_t>(
                                 edge)])) {
      return false;
    }
  }
  return true;
}

}  // namespace fused
}  // namespace uot
