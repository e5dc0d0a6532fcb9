#ifndef UOT_SCHEDULER_UOT_POLICY_H_
#define UOT_SCHEDULER_UOT_POLICY_H_

#include <cstdint>
#include <string>

#include "util/macros.h"

namespace uot {

/// The unit of transfer (UoT): how much producer output accumulates before
/// it is transferred to the consumer operator (paper Sections I-III, Fig 1).
///
/// The granularity is measured in completed output blocks, matching the
/// paper's block-based setting: the smallest UoT is a single block
/// (traditionally called "pipelining"); the largest is the whole
/// intermediate table (traditionally "blocking"/"materializing"). Every
/// value in between is a valid point on the spectrum.
///
/// A UoT is one fixed value: a block count or the whole table. The engine
/// applies ExecConfig::uot to every edge; plan annotations
/// (QueryPlan::AnnotateEdgeUot) pin single edges to their own value.
class UotPolicy {
 public:
  /// Sentinel meaning "accumulate the producer's entire output before the
  /// (single) transfer" — the materializing end of the spectrum. It is a
  /// reserved blocks_per_transfer value, not a count: no real edge buffers
  /// UINT64_MAX blocks, so IsWholeTable() is unambiguous.
  static constexpr uint64_t kWholeTable = UINT64_MAX;

  /// Default: smallest UoT (one block per transfer).
  UotPolicy() : blocks_per_transfer_(1) {}
  /// Zero blocks per transfer is meaningless (a transfer must carry at
  /// least one block) and aborts: a chooser bug must fail loudly
  /// instead of silently degrading to pipelining.
  explicit UotPolicy(uint64_t blocks_per_transfer)
      : blocks_per_transfer_(blocks_per_transfer) {
    UOT_CHECK(blocks_per_transfer != 0);
  }

  /// The low end of the spectrum: transfer every `k` completed blocks.
  static UotPolicy LowUot(uint64_t k = 1) { return UotPolicy(k); }

  /// The high end: wait for the entire intermediate table.
  static UotPolicy HighUot() { return UotPolicy(kWholeTable); }

  bool IsWholeTable() const { return blocks_per_transfer_ == kWholeTable; }
  uint64_t blocks_per_transfer() const { return blocks_per_transfer_; }

  std::string ToString() const;

 private:
  uint64_t blocks_per_transfer_;
};

inline std::string UotPolicy::ToString() const {
  if (IsWholeTable()) return "UoT=whole-table";
  return "UoT=" + std::to_string(blocks_per_transfer_) + "-block(s)";
}

}  // namespace uot

#endif  // UOT_SCHEDULER_UOT_POLICY_H_
