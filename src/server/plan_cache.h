#ifndef UOT_SERVER_PLAN_CACHE_H_
#define UOT_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/uot_chooser.h"
#include "util/macros.h"

namespace uot {
namespace server {

/// The cached physical annotations of one query template: everything the
/// CostModelUotChooser decided for this plan shape, so a repeat execution
/// re-applies the choices without evaluating the model.
struct PlanCacheEntry {
  /// The world the choices were made in: table cardinalities + the exec
  /// knobs that shape plans or costs (join kernel, block size, budget). A
  /// lookup whose fingerprint differs invalidates the entry — cardinality
  /// or knob drift means the model must re-choose.
  std::string fingerprint;
  /// ChoosePlan verdict per streaming edge, in plan edge order.
  std::vector<UotChoice> choices;
};

/// A bounded, thread-safe LRU map from query template to PlanCacheEntry.
class PlanCache {
 public:
  /// `capacity` bounds the number of entries; 0 disables the cache
  /// entirely (every Insert is a no-op, every Lookup a miss).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}
  UOT_DISALLOW_COPY_AND_ASSIGN(PlanCache);

  enum class Outcome {
    kHit,          // entry present, fingerprint matches
    kMiss,         // no entry for the template
    kInvalidated,  // entry present but stale; erased
  };

  /// Looks up `key`; on a hit copies the entry into `*out` and refreshes
  /// recency. A fingerprint mismatch erases the stale entry and reports
  /// kInvalidated (the caller re-chooses and re-inserts).
  Outcome Lookup(const std::string& key, const std::string& fingerprint,
                 PlanCacheEntry* out);

  /// Inserts (or replaces) the entry for `key`, evicting the
  /// least-recently-used entry when over capacity.
  void Insert(const std::string& key, PlanCacheEntry entry);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t invalidations() const;
  uint64_t evictions() const;

 private:
  struct Node {
    std::string key;
    PlanCacheEntry entry;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace server
}  // namespace uot

#endif  // UOT_SERVER_PLAN_CACHE_H_
