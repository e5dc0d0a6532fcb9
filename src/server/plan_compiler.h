#ifndef UOT_SERVER_PLAN_COMPILER_H_
#define UOT_SERVER_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/plan_builder.h"
#include "server/catalog.h"
#include "server/sql_parser.h"
#include "util/status.h"

namespace uot {
namespace server {

/// Compiles a parsed SelectStatement into a physical QueryPlan through
/// PlanBuilder, resolving columns against the catalog and binding literal
/// (or EXECUTE-parameter) values to the compared columns' types.
///
/// Plan shape (the left-deep form every existing substrate uses):
///   Select(from-table)
///     [-> Build(join-table) + Probe]                when joined
///     -> Aggregate                                  when aggregated
///     [-> projection-only Select]                   bare columns post-join
class PlanCompiler {
 public:
  PlanCompiler(const Catalog* catalog, PlanBuilderConfig config)
      : catalog_(catalog), config_(config) {}

  /// Builds the plan. `params` supplies values for `?` placeholders in
  /// statement order. `reserved` must be 0; any other value is rejected
  /// with InvalidArgument. On error `*out` is untouched.
  Status Compile(const SelectStatement& stmt,
                 const std::vector<SqlValue>& params, int reserved,
                 std::unique_ptr<QueryPlan>* out) const;

  const PlanBuilderConfig& config() const { return config_; }

 private:
  const Catalog* const catalog_;
  const PlanBuilderConfig config_;
};

}  // namespace server
}  // namespace uot

#endif  // UOT_SERVER_PLAN_COMPILER_H_
