#include "exec/adaptive_uot_policy.h"

#include <algorithm>

#include "model/uot_chooser.h"

namespace uot {

AdaptiveUotPolicy::AdaptiveUotPolicy(Options options)
    : AdaptiveUotPolicy(options, {}) {}

AdaptiveUotPolicy::AdaptiveUotPolicy(Options options,
                                     std::vector<uint64_t> edge_seeds)
    : options_(options), edge_seeds_(std::move(edge_seeds)) {
  UOT_CHECK(options_.min_blocks >= 1);
  UOT_CHECK(options_.min_blocks <= options_.max_blocks);
  UOT_CHECK(options_.initial_blocks >= options_.min_blocks &&
            options_.initial_blocks <= options_.max_blocks);
  UOT_CHECK(options_.widen_watermark <= options_.narrow_watermark);
  UOT_CHECK(options_.exchange_max_blocks >= options_.min_blocks);
  for (uint64_t seed : edge_seeds_) UOT_CHECK(seed != 0);
}

uint64_t AdaptiveUotPolicy::SeedFor(int edge_index) const {
  if (edge_index >= 0 &&
      static_cast<size_t>(edge_index) < edge_seeds_.size()) {
    return std::clamp(edge_seeds_[static_cast<size_t>(edge_index)],
                      options_.min_blocks, options_.max_blocks);
  }
  return options_.initial_blocks;
}

uint64_t AdaptiveUotPolicy::BlocksPerTransfer(const EdgeRuntimeState& edge,
                                              UotAdaptCause* cause) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Exchange edges cap below the general ceiling: their consumer buffers
  // everything anyway, so wide granules only serialize repartition work.
  const uint64_t max_blocks =
      edge.is_exchange
          ? std::min(options_.max_blocks, options_.exchange_max_blocks)
          : options_.max_blocks;
  auto [it, inserted] = edges_.try_emplace(
      std::make_pair(edge.query_id, edge.edge_index),
      EdgeControl{std::min(SeedFor(edge.edge_index), max_blocks)});
  EdgeControl& control = it->second;
  if (inserted) *cause = UotAdaptCause::kSeed;

  const bool budgeted = edge.memory_budget_bytes > 0;
  // Usage of the *headroom* above the session's structural floor: with
  // large resident base tables, tracked/budget saturates near 1 regardless
  // of what this query buffers, so the watermarks are applied to the share
  // of the discretionary budget the query's own intermediates occupy. A
  // budget at or under the floor leaves no headroom: permanent pressure.
  double usage = 0.0;
  if (budgeted) {
    const int64_t headroom =
        edge.memory_budget_bytes - edge.baseline_tracked_bytes;
    const int64_t used = edge.tracked_bytes - edge.baseline_tracked_bytes;
    usage = headroom > 0 ? static_cast<double>(std::max<int64_t>(0, used)) /
                               static_cast<double>(headroom)
                         : 2.0;  // over any watermark
  }
  const bool pressure = edge.deferred_work_orders > 0 ||
                        (budgeted && usage >= options_.narrow_watermark);

  if (pressure) {
    control.calm_streak = 0;
    if (control.blocks > options_.min_blocks) {
      control.blocks = std::max(options_.min_blocks, control.blocks / 2);
      adaptations_.fetch_add(1, std::memory_order_relaxed);
      *cause = edge.deferred_work_orders > 0
                   ? UotAdaptCause::kDeferralDepth
                   : UotAdaptCause::kHeadroomWatermark;
    }
  } else if (!budgeted || usage <= options_.widen_watermark) {
    ++control.calm_streak;
    // A producer sprinting ahead of its consumer makes small transfers
    // pure overhead; halve the patience before widening.
    const double consumer_done = static_cast<double>(
        std::max<uint64_t>(1, edge.consumer_work_orders_done));
    const bool producer_ahead =
        static_cast<double>(edge.producer_work_orders_done) >=
        options_.imbalance_ratio * consumer_done;
    const uint64_t needed_calm =
        producer_ahead ? std::max<uint64_t>(1, options_.widen_after_calm / 2)
                       : options_.widen_after_calm;
    if (control.calm_streak >= needed_calm && control.blocks < max_blocks) {
      control.blocks = std::min(max_blocks, control.blocks * 2);
      control.calm_streak = 0;
      adaptations_.fetch_add(1, std::memory_order_relaxed);
      *cause = producer_ahead ? UotAdaptCause::kRateImbalance
                              : UotAdaptCause::kCalmStreak;
    }
  }
  return control.blocks;
}

std::string AdaptiveUotPolicy::ToString() const {
  return "adaptive(seed=" + std::to_string(options_.initial_blocks) +
         ",min=" + std::to_string(options_.min_blocks) +
         ",max=" + std::to_string(options_.max_blocks) + ",watermarks=" +
         std::to_string(options_.widen_watermark) + "/" +
         std::to_string(options_.narrow_watermark) +
         (edge_seeds_.empty() ? ")" : ",model-seeded)");
}

std::vector<uint64_t> AdaptiveUotPolicy::SeedsFromChoices(
    const std::vector<UotChoice>& choices, uint64_t max_blocks) {
  std::vector<uint64_t> seeds;
  seeds.reserve(choices.size());
  for (const UotChoice& choice : choices) {
    seeds.push_back(choice.uot.IsWholeTable()
                        ? max_blocks
                        : choice.uot.blocks_per_transfer());
  }
  return seeds;
}

}  // namespace uot
