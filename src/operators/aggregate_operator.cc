#include "operators/aggregate_operator.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "operators/key_util.h"

namespace uot {

namespace {

double LoadDouble(const uint64_t* word) {
  double v;
  std::memcpy(&v, word, 8);
  return v;
}

void StoreDouble(uint64_t* word, double v) { std::memcpy(word, &v, 8); }

/// Adds `v` to the Kahan pair (sum, compensation) at `state[0..2)`.
void KahanAdd(uint64_t* state, double v) {
  const double sum = LoadDouble(state);
  const double comp = LoadDouble(state + 1);
  const double y = v - comp;
  const double t = sum + y;
  StoreDouble(state + 1, (t - sum) - y);
  StoreDouble(state, t);
}

/// Runs `fn(std::integral_constant<int, K>{})` for the key width `words`.
template <typename Fn>
void DispatchKeyWords(int words, Fn&& fn) {
  switch (words) {
    case 0:
      return fn(std::integral_constant<int, 0>{});
    case 1:
      return fn(std::integral_constant<int, 1>{});
    case 2:
      return fn(std::integral_constant<int, 2>{});
    case 3:
      return fn(std::integral_constant<int, 3>{});
  }
  UOT_CHECK(false);
}

}  // namespace

void GroupTable::Reserve(uint64_t groups) {
  UOT_DCHECK(bound());
  if (groups * 4 <= capacity_ * 3) return;
  uint64_t capacity = capacity_ == 0 ? 8 : capacity_ * 2;
  while (groups * 4 > capacity * 3) capacity *= 2;
  auto ctrl = std::make_unique<uint8_t[]>(capacity);  // zeroed: all empty
  std::unique_ptr<uint64_t[]> slots(
      new uint64_t[capacity * static_cast<uint64_t>(slot_words_)]);
  const uint64_t mask = capacity - 1;
  const size_t slot_bytes = static_cast<size_t>(slot_words_) * 8;
  for (uint64_t i = 0; i < capacity_; ++i) {
    if (ctrl_[i] == 0) continue;
    const uint64_t* src = Slot(i);
    uint64_t idx = HashGroupKey(src, key_words_) & mask;
    while (ctrl[idx] != 0) idx = (idx + 1) & mask;
    ctrl[idx] = ctrl_[i];
    std::memcpy(slots.get() + idx * static_cast<uint64_t>(slot_words_), src,
                slot_bytes);
  }
  ctrl_ = std::move(ctrl);
  slots_ = std::move(slots);
  capacity_ = capacity;
}

void GroupTable::Release() {
  ctrl_.reset();
  slots_.reset();
  capacity_ = 0;
  size_ = 0;
}

AggregateOperator::AggregateOperator(std::string name,
                                     const Schema& input_schema,
                                     std::vector<int> group_cols,
                                     std::vector<AggSpec> aggs,
                                     std::unique_ptr<Predicate> predicate,
                                     InsertDestination* destination)
    : Operator(std::move(name)),
      input_schema_(input_schema),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      predicate_(std::move(predicate)),
      destination_(destination),
      key_words_(static_cast<int>(group_cols_.size())) {
  UOT_CHECK(group_cols_.size() <= 3);
  for (int c : group_cols_) {
    UOT_CHECK(IsKeyableType(input_schema_.column(c).type));
  }
  UOT_CHECK(!aggs_.empty());
  int offset = key_words_;
  for (const AggSpec& a : aggs_) {
    UOT_CHECK(a.fn == AggFn::kCount || a.expr != nullptr);
    state_offset_.push_back(offset);
    switch (a.fn) {
      case AggFn::kCount:
        init_state_.push_back(0);
        break;
      case AggFn::kSum:
        init_state_.insert(init_state_.end(), {0, 0});
        break;
      case AggFn::kAvg:
        init_state_.insert(init_state_.end(), {0, 0, 0});
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        init_state_.push_back(0);
        StoreDouble(&init_state_.back(),
                    a.fn == AggFn::kMin ? 1e308 : -1e308);
        break;
      }
    }
    offset = key_words_ + static_cast<int>(init_state_.size());
  }
  slot_words_ = offset;
}

void AggregateOperator::ReceiveInputBlocks(int input_index,
                                           const std::vector<Block*>& blocks) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.Deliver(blocks);
}

void AggregateOperator::InputDone(int input_index) {
  UOT_DCHECK(input_index == 0);
  (void)input_index;
  input_.MarkDone();
}

bool AggregateOperator::GenerateWorkOrders(
    std::vector<std::unique_ptr<WorkOrder>>* out) {
  for (Block* block : input_.TakePending()) {
    auto wo = std::make_unique<AggregateWorkOrder>(block, this);
    if (!input_.from_base_table()) wo->consumed_blocks.push_back(block);
    out->push_back(std::move(wo));
  }
  return input_.done();
}

void AggregateOperator::MergeStates(uint64_t* dst, const uint64_t* src) const {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const int off = state_offset_[a];
    switch (aggs_[a].fn) {
      case AggFn::kCount:
        dst[off] += src[off];
        break;
      case AggFn::kAvg:
        dst[off + 2] += src[off + 2];
        [[fallthrough]];
      case AggFn::kSum:
        KahanAdd(dst + off, LoadDouble(src + off));
        KahanAdd(dst + off, -LoadDouble(src + off + 1));
        break;
      case AggFn::kMin:
        if (LoadDouble(src + off) < LoadDouble(dst + off)) dst[off] = src[off];
        break;
      case AggFn::kMax:
        if (LoadDouble(src + off) > LoadDouble(dst + off)) dst[off] = src[off];
        break;
    }
  }
}

template <int K>
void AggregateOperator::MergeIntoShard(
    const std::pair<const uint64_t*, uint64_t>* groups, size_t n,
    GroupTable* table) const {
  constexpr size_t kPrefetchDistance = 8;
  const size_t state_bytes = init_state_.size() * 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      table->Prefetch(groups[i + kPrefetchDistance].second);
    }
    const uint64_t* src = groups[i].first;
    bool inserted = false;
    uint64_t* dst = table->FindOrInsert<K>(src, groups[i].second, &inserted);
    if (inserted) {
      std::memcpy(dst + K, src + K, state_bytes);
    } else {
      MergeStates(dst, src);
    }
  }
}

void AggregateOperator::MergePartial(GroupMap&& partial) {
  if (partial.table.empty()) return;
  // Route the partial's groups to shards by the high bits of their hash
  // (a counting sort), so each shard's lock is taken once.
  const auto shard_of = [](uint64_t hash) {
    return static_cast<size_t>(hash >> (64 - kMergeShardBits));
  };
  std::vector<std::pair<const uint64_t*, uint64_t>>& groups = partial.groups;
  groups.clear();
  std::array<size_t, kMergeShards + 1> begin{};
  partial.table.ForEachGroup([&](const uint64_t* slot) {
    const uint64_t hash = HashGroupKey(slot, key_words_);
    groups.emplace_back(slot, hash);
    ++begin[shard_of(hash) + 1];
  });
  for (int s = 0; s < kMergeShards; ++s) begin[s + 1] += begin[s];
  std::array<size_t, kMergeShards> cursor;
  std::copy(begin.begin(), begin.end() - 1, cursor.begin());
  partial.routed.resize(groups.size());
  for (const auto& g : groups) {
    partial.routed[cursor[shard_of(g.second)]++] = g;
  }

  for (int s = 0; s < kMergeShards; ++s) {
    const size_t n = begin[s + 1] - begin[s];
    if (n == 0) continue;
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    GroupTable* table = &shards_[s].table;
    if (!table->bound()) table->Bind(key_words_, slot_words_);
    table->Reserve(table->size() + n);
    DispatchKeyWords(key_words_, [&](auto k) {
      MergeIntoShard<decltype(k)::value>(partial.routed.data() + begin[s], n,
                                         table);
    });
  }
}

void AggregateOperator::EmitGroup(const uint64_t* slot, std::byte* row,
                                  InsertDestination::Writer* writer) const {
  const Schema& out_schema = destination_->schema();
  int col = 0;
  for (size_t g = 0; g < group_cols_.size(); ++g, ++col) {
    const Type& type = input_schema_.column(group_cols_[g]).type;
    UnwidenKeyValue(type, slot[g], row + out_schema.offset(col));
  }
  for (size_t a = 0; a < aggs_.size(); ++a, ++col) {
    const uint64_t* state = slot + state_offset_[a];
    std::byte* out = row + out_schema.offset(col);
    if (aggs_[a].fn == AggFn::kCount) {
      std::memcpy(out, state, 8);
      continue;
    }
    double v = LoadDouble(state);
    if (aggs_[a].fn == AggFn::kAvg) {
      const int64_t count = static_cast<int64_t>(state[2]);
      v = count == 0 ? 0.0 : v / static_cast<double>(count);
    }
    std::memcpy(out, &v, 8);
  }
  writer->AppendRow(row);
}

void AggregateOperator::Finish() {
  // Materialize final groups (single-threaded; group counts are small
  // relative to input sizes). Each shard is freed once written.
  {
    std::vector<std::byte> row(destination_->schema().row_width());
    InsertDestination::Writer writer(destination_);
    bool any_group = false;
    for (Shard& shard : shards_) {
      any_group = any_group || !shard.table.empty();
      shard.table.ForEachGroup([&](const uint64_t* slot) {
        EmitGroup(slot, row.data(), &writer);
      });
      shard.table.Release();
    }
    // Scalar aggregation over empty input still produces one row: the
    // state of an empty group (a scalar slot has no key words).
    if (!any_group && group_cols_.empty()) {
      EmitGroup(init_state_.data(), row.data(), &writer);
    }
  }
  destination_->Flush();
}

Schema AggregateOperator::OutputSchema(const Schema& input_schema,
                                       const std::vector<int>& group_cols,
                                       const std::vector<AggSpec>& aggs) {
  std::vector<Column> columns;
  for (int c : group_cols) columns.push_back(input_schema.column(c));
  for (const AggSpec& a : aggs) {
    columns.push_back(Column{
        a.name, a.fn == AggFn::kCount ? Type::Int64() : Type::Double()});
  }
  return Schema(std::move(columns));
}

template <int K>
void AggregateOperator::LocateGroups(const Block& block,
                                     const std::vector<uint32_t>& sel,
                                     GroupMap* partial) const {
  const uint32_t n = static_cast<uint32_t>(sel.size());
  partial->keys.resize(static_cast<size_t>(n) * K + 1);  // + 1: never null
  uint64_t* keys = partial->keys.data();
  if constexpr (K > 0) ExtractKeys(block, group_cols_, sel.data(), n, keys);
  GroupTable& table = partial->table;
  uint64_t** slots = partial->slots.data();
  const size_t state_bytes = init_state_.size() * 8;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t* key = keys + static_cast<size_t>(i) * K;
    bool inserted = false;
    uint64_t* slot =
        table.FindOrInsert<K>(key, HashGroupKey(key, K), &inserted);
    if (inserted) std::memcpy(slot + K, init_state_.data(), state_bytes);
    slots[i] = slot;
  }
}

void AggregateOperator::Accumulate(const Block& block,
                                   std::vector<uint32_t>* sel,
                                   GroupMap* partial) const {
  if (predicate_ != nullptr) predicate_->Filter(block, sel);
  const uint32_t n = static_cast<uint32_t>(sel->size());
  if (n == 0) return;

  // Size the partial for the worst case up front: a scalar aggregate has
  // one group, otherwise every selected row may open one.
  GroupTable& table = partial->table;
  if (!table.bound()) table.Bind(key_words_, slot_words_);
  table.Reserve(table.size() + (key_words_ == 0 ? 1 : n));
  partial->slots.resize(n);
  DispatchKeyWords(key_words_, [&](auto k) {
    LocateGroups<decltype(k)::value>(block, *sel, partial);
  });

  // Fold the rows aggregate by aggregate, with the function dispatch
  // hoisted out of the row loops.
  uint64_t* const* slots = partial->slots.data();
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const int off = state_offset_[a];
    if (aggs_[a].fn == AggFn::kCount) {
      for (uint32_t i = 0; i < n; ++i) ++slots[i][off];
      continue;
    }
    partial->values.resize(n);
    double* v = partial->values.data();
    EvalAsDouble(*aggs_[a].expr, block, sel->data(), n, v);
    switch (aggs_[a].fn) {
      case AggFn::kSum:
        for (uint32_t i = 0; i < n; ++i) KahanAdd(slots[i] + off, v[i]);
        break;
      case AggFn::kAvg:
        for (uint32_t i = 0; i < n; ++i) {
          KahanAdd(slots[i] + off, v[i]);
          ++slots[i][off + 2];
        }
        break;
      case AggFn::kMin:
        for (uint32_t i = 0; i < n; ++i) {
          uint64_t* state = slots[i] + off;
          if (v[i] < LoadDouble(state)) StoreDouble(state, v[i]);
        }
        break;
      case AggFn::kMax:
        for (uint32_t i = 0; i < n; ++i) {
          uint64_t* state = slots[i] + off;
          if (v[i] > LoadDouble(state)) StoreDouble(state, v[i]);
        }
        break;
      case AggFn::kCount:
        break;
    }
  }
}

void AggregateWorkOrder::Execute() {
  std::vector<uint32_t> sel(block_->num_rows());
  for (uint32_t i = 0; i < block_->num_rows(); ++i) sel[i] = i;
  AggregateOperator::GroupMap partial;
  op_->Accumulate(*block_, &sel, &partial);
  op_->MergePartial(std::move(partial));
}

}  // namespace uot
