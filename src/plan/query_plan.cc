#include "plan/query_plan.h"

namespace uot {

int QueryPlan::AddOperator(std::unique_ptr<Operator> op) {
  operators_.push_back(std::move(op));
  return static_cast<int>(operators_.size()) - 1;
}

void QueryPlan::AddStreamingEdge(int producer, int consumer,
                                 int consumer_input) {
  UOT_CHECK(producer >= 0 && producer < num_operators());
  UOT_CHECK(consumer >= 0 && consumer < num_operators());
  UOT_CHECK(producer != consumer);
  streaming_edges_.push_back(
      StreamingEdge{producer, consumer, consumer_input, 0});
}

void QueryPlan::AddBlockingEdge(int producer, int consumer) {
  UOT_CHECK(producer >= 0 && producer < num_operators());
  UOT_CHECK(consumer >= 0 && consumer < num_operators());
  UOT_CHECK(producer != consumer);
  blocking_edges_.push_back(BlockingEdge{producer, consumer});
}

Table* QueryPlan::CreateTempTable(std::string name, Schema schema,
                                  Layout layout, size_t block_bytes) {
  temp_tables_.push_back(std::make_unique<Table>(
      std::move(name), std::move(schema), layout, block_bytes, storage_,
      MemoryCategory::kTemporaryTable));
  return temp_tables_.back().get();
}

InsertDestination* QueryPlan::CreateDestination(Table* table) {
  destinations_.push_back(OwnedDestination{
      -1, std::make_unique<InsertDestination>(storage_, table, nullptr)});
  return destinations_.back().destination.get();
}

void QueryPlan::RegisterOutput(int producer, InsertDestination* destination) {
  UOT_CHECK(producer >= 0 && producer < num_operators());
  UOT_CHECK(destination_of(producer) == nullptr);  // one output per producer
  for (OwnedDestination& d : destinations_) {
    if (d.destination.get() == destination) {
      d.producer = producer;
      return;
    }
  }
  UOT_CHECK(false);  // destination not created by this plan
}

void QueryPlan::AnnotateEdgeUot(int edge_index, UotPolicy uot) {
  UOT_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(streaming_edges_.size()));
  streaming_edges_[static_cast<size_t>(edge_index)].uot_blocks =
      uot.blocks_per_transfer();
}

std::optional<UotPolicy> QueryPlan::edge_uot(int edge_index) const {
  UOT_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(streaming_edges_.size()));
  const uint64_t blocks =
      streaming_edges_[static_cast<size_t>(edge_index)].uot_blocks;
  if (blocks == 0) return std::nullopt;
  return UotPolicy(blocks);
}

void QueryPlan::AnnotateEdgePrediction(int edge_index,
                                       EdgePrediction prediction) {
  UOT_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(streaming_edges_.size()));
  if (edge_predictions_.size() != streaming_edges_.size()) {
    edge_predictions_.resize(streaming_edges_.size());
  }
  edge_predictions_[static_cast<size_t>(edge_index)] = std::move(prediction);
}

std::optional<QueryPlan::EdgePrediction> QueryPlan::edge_prediction(
    int edge_index) const {
  UOT_CHECK(edge_index >= 0 &&
            edge_index < static_cast<int>(streaming_edges_.size()));
  if (static_cast<size_t>(edge_index) >= edge_predictions_.size()) {
    return std::nullopt;
  }
  return edge_predictions_[static_cast<size_t>(edge_index)];
}

int QueryPlan::FindStreamingEdge(int producer, int consumer,
                                 int consumer_input) const {
  for (size_t i = 0; i < streaming_edges_.size(); ++i) {
    const StreamingEdge& e = streaming_edges_[i];
    if (e.producer == producer && e.consumer == consumer &&
        e.consumer_input == consumer_input) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void QueryPlan::AnnotateFusedPipeline(std::vector<int> ops) {
  UOT_CHECK(ops.size() >= 2);
  for (const int op : ops) {
    UOT_CHECK(op >= 0 && op < num_operators());
  }
  fused_pipelines_.push_back(std::move(ops));
}

std::string QueryPlan::ToString() const {
  std::string out = "QueryPlan{\n";
  for (size_t i = 0; i < operators_.size(); ++i) {
    out += "  op[" + std::to_string(i) + "] " + operators_[i]->name() + "\n";
  }
  for (size_t i = 0; i < streaming_edges_.size(); ++i) {
    const StreamingEdge& e = streaming_edges_[i];
    out += "  stream[" + std::to_string(i) + "] " +
           std::to_string(e.producer) + " -> " + std::to_string(e.consumer) +
           " (input " + std::to_string(e.consumer_input) + ")";
    if (e.uot_blocks != 0) {
      out += " [" + UotPolicy(e.uot_blocks).ToString() + "]";
    }
    out += "\n";
  }
  for (const BlockingEdge& e : blocking_edges_) {
    out += "  block " + std::to_string(e.producer) + " => " +
           std::to_string(e.consumer) + "\n";
  }
  for (size_t i = 0; i < fused_pipelines_.size(); ++i) {
    out += "  fused[" + std::to_string(i) + "]";
    for (size_t j = 0; j < fused_pipelines_[i].size(); ++j) {
      out += (j == 0 ? " " : " -> ") + std::to_string(fused_pipelines_[i][j]);
    }
    out += "\n";
  }
  out += "}";
  return out;
}

InsertDestination* QueryPlan::destination_of(int producer) const {
  for (const OwnedDestination& d : destinations_) {
    if (d.producer == producer) return d.destination.get();
  }
  return nullptr;
}

}  // namespace uot
