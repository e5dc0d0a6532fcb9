#ifndef UOT_OPERATORS_AGGREGATE_OPERATOR_H_
#define UOT_OPERATORS_AGGREGATE_OPERATOR_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "expr/predicate.h"
#include "expr/projection.h"
#include "join/hash_table.h"
#include "operators/operator.h"
#include "storage/insert_destination.h"
#include "util/macros.h"

namespace uot {

enum class AggFn : uint8_t { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate computation: a function over an input expression
/// (`expr == nullptr` means COUNT(*)).
struct AggSpec {
  AggFn fn;
  std::unique_ptr<Scalar> expr;
  std::string name;
};

/// Hash of a group key of `words` (0-3) widened words: the join hash, so
/// join and group-by share one function. A scalar aggregate's empty key
/// hashes to 0.
inline uint64_t HashGroupKey(const uint64_t* key, int words) {
  return words == 0 ? 0 : HashJoinKey(key, words);
}

/// A flat open-addressing table of groups. Each slot is `slot_words` 64-bit
/// words: the group's `key_words` widened key words (one per GROUP BY
/// column, 0-3) followed by its aggregate states inline. A parallel control
/// byte per slot is 0 while the slot is empty and a 7-bit hash tag once it
/// is claimed, so a probe rejects most foreign slots without reading their
/// keys. Probing is linear; Reserve keeps the load factor at or below 3/4
/// and grows the table by rehashing. Slot words are only read behind a
/// claimed control byte, so they are never zero-filled.
///
/// Not thread-safe: a table is either one work order's partial or a merge
/// shard guarded by its own mutex.
class GroupTable {
 public:
  /// Fixes the slot shape. A default-constructed table is bound on first
  /// use.
  void Bind(int key_words, int slot_words) {
    key_words_ = key_words;
    slot_words_ = slot_words;
  }
  bool bound() const { return slot_words_ > 0; }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Makes room for `groups` groups in total; rehashes into a larger table
  /// if they would pass the 3/4 load factor.
  void Reserve(uint64_t groups);

  /// Frees the table's memory; the shape stays bound.
  void Release();

  /// Hints the cache about the home slot of `hash`.
  void Prefetch(uint64_t hash) const {
    const uint64_t idx = hash & (capacity_ - 1);
    UOT_PREFETCH_WRITE(&ctrl_[idx]);
    UOT_PREFETCH_WRITE(Slot(idx));
  }

  /// Returns the slot holding `key` (`K` == key_words words, hash `hash`).
  /// If the key is absent, claims an empty slot, copies the key into it and
  /// sets `*inserted`; the caller then writes the state words. Reserve must
  /// already cover the new group.
  template <int K>
  uint64_t* FindOrInsert(const uint64_t* key, uint64_t hash, bool* inserted) {
    UOT_DCHECK(K == key_words_ && (size_ + 1) * 4 <= capacity_ * 3);
    const uint64_t mask = capacity_ - 1;
    const uint8_t tag = Tag(hash);
    uint64_t idx = hash & mask;
    while (true) {
      const uint8_t c = ctrl_[idx];
      uint64_t* slot = Slot(idx);
      if (c == 0) {
        ctrl_[idx] = tag;
        for (int k = 0; k < K; ++k) slot[k] = key[k];
        ++size_;
        *inserted = true;
        return slot;
      }
      if (c == tag && KeyEquals<K>(slot, key)) {
        *inserted = false;
        return slot;
      }
      idx = (idx + 1) & mask;
    }
  }

  /// Invokes `fn(slot)` for every group, in slot order.
  template <typename Fn>
  void ForEachGroup(Fn&& fn) const {
    for (uint64_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != 0) fn(static_cast<const uint64_t*>(Slot(i)));
    }
  }

 private:
  static uint8_t Tag(uint64_t hash) {
    // Bits the slot index (low) and the merge shard (high) do not use.
    return static_cast<uint8_t>(0x80 | ((hash >> 32) & 0x7F));
  }

  template <int K>
  static bool KeyEquals(const uint64_t* slot, const uint64_t* key) {
    bool eq = true;
    for (int k = 0; k < K; ++k) eq = eq && slot[k] == key[k];
    return eq;
  }

  uint64_t* Slot(uint64_t idx) const {
    return slots_.get() + idx * static_cast<uint64_t>(slot_words_);
  }

  std::unique_ptr<uint8_t[]> ctrl_;    // [capacity]; 0 = empty, else tag
  std::unique_ptr<uint64_t[]> slots_;  // [capacity * slot_words]
  uint64_t capacity_ = 0;              // 0 or a power of two
  uint64_t size_ = 0;
  int key_words_ = 0;
  int slot_words_ = 0;
};

/// Hash-based (optionally grouped) aggregation with an optional fused
/// filter predicate, so plans like TPC-H Q1/Q6 are a single leaf operator
/// on the base table — matching the paper's Fig. 3 observation that those
/// queries are dominated by one leaf operator.
///
/// Each work order folds its rows into a partial GroupTable, then merges
/// the partial into kMergeShards global tables: a group goes to the shard
/// named by the high bits of its hash, and each shard has its own mutex, so
/// concurrent merges mostly touch different shards. Finish() walks the
/// shards and materializes the groups into the output destination.
///
/// Aggregate state is per function, inline in the group's slot: COUNT keeps
/// a count, SUM a Kahan sum and its compensation term, AVG sum, term and
/// count, MIN and MAX one double. The Kahan terms make sums (nearly)
/// independent of the order in which partials merge — scheduling must not
/// change query results beyond the last representable bit.
class AggregateOperator final : public Operator {
 public:
  /// `group_cols` (0-3 columns, integral or CHAR<=8) may be empty for
  /// scalar aggregation. `input_schema` is the schema of the streamed or
  /// attached input.
  AggregateOperator(std::string name, const Schema& input_schema,
                    std::vector<int> group_cols, std::vector<AggSpec> aggs,
                    std::unique_ptr<Predicate> predicate,
                    InsertDestination* destination);

  void AttachBaseTable(const Table* table) { input_.AttachTable(table); }

  void ReceiveInputBlocks(int input_index,
                          const std::vector<Block*>& blocks) override;
  void InputDone(int input_index) override;
  bool GenerateWorkOrders(
      std::vector<std::unique_ptr<WorkOrder>>* out) override;
  void Finish() override;

  /// Output schema: group columns (original types) then one column per
  /// aggregate (COUNT -> INT64, others -> DOUBLE).
  static Schema OutputSchema(const Schema& input_schema,
                             const std::vector<int>& group_cols,
                             const std::vector<AggSpec>& aggs);

  /// Number of hash-sharded global tables partials merge into.
  static constexpr int kMergeShardBits = 4;
  static constexpr int kMergeShards = 1 << kMergeShardBits;

  /// A work order's partial aggregate: its group table plus the kernel's
  /// scratch, kept across Accumulate calls so no row allocates.
  struct GroupMap {
    GroupTable table;
    std::vector<uint64_t> keys;    // [row * key_words + k]
    std::vector<uint64_t*> slots;  // [row] group slot of each selected row
    std::vector<double> values;    // [row] one aggregate's input values
    // MergePartial scratch: (slot, hash) per group, in table order, then
    // bucketed by merge shard.
    std::vector<std::pair<const uint64_t*, uint64_t>> groups;
    std::vector<std::pair<const uint64_t*, uint64_t>> routed;
  };

  /// The aggregation kernel, shared by AggregateWorkOrder and fused
  /// aggregate stages: filters `sel` (ascending row ids of `block`) by the
  /// fused predicate, then folds the surviving rows into the caller-owned
  /// partial. The partial is sized once per call for every selected row,
  /// so the row loops neither allocate nor rehash.
  void Accumulate(const Block& block, std::vector<uint32_t>* sel,
                  GroupMap* partial) const;

  /// Merges a work order's partial into the shards (called from worker
  /// threads). Leaves the partial's groups in place.
  void MergePartial(GroupMap&& partial);

 private:
  struct alignas(64) Shard {
    std::mutex mutex;
    GroupTable table;
  };

  template <int K>
  void LocateGroups(const Block& block, const std::vector<uint32_t>& sel,
                    GroupMap* partial) const;
  template <int K>
  void MergeIntoShard(
      const std::pair<const uint64_t*, uint64_t>* groups, size_t n,
      GroupTable* table) const;
  /// Folds the state words of one group (`src`) into another's (`dst`).
  void MergeStates(uint64_t* dst, const uint64_t* src) const;
  /// Writes one output row for the group in `slot`.
  void EmitGroup(const uint64_t* slot, std::byte* row,
                 InsertDestination::Writer* writer) const;

  const Schema input_schema_;
  const std::vector<int> group_cols_;
  const std::vector<AggSpec> aggs_;
  const std::unique_ptr<Predicate> predicate_;
  InsertDestination* const destination_;

  // Slot layout: key words, then each aggregate's state at
  // state_offset_[a] (a word offset within the slot).
  const int key_words_;
  std::vector<int> state_offset_;
  int slot_words_ = 0;
  std::vector<uint64_t> init_state_;  // state words of a new, empty group

  StreamingInput input_;

  std::array<Shard, kMergeShards> shards_;
};

/// Aggregates one input block into a partial group table and merges it.
class AggregateWorkOrder final : public WorkOrder {
 public:
  AggregateWorkOrder(const Block* block, AggregateOperator* op)
      : block_(block), op_(op) {}

  void Execute() override;

 private:
  const Block* const block_;
  AggregateOperator* const op_;
};

}  // namespace uot

#endif  // UOT_OPERATORS_AGGREGATE_OPERATOR_H_
