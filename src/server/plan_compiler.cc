#include "server/plan_compiler.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "expr/projection.h"
#include "operators/key_util.h"
#include "types/date.h"

namespace uot {
namespace server {
namespace {

/// A column resolved against the statement's tables: which side it lives
/// on (0 = FROM table, 1 = JOIN table) and its index there.
struct BoundColumn {
  int side = 0;
  int index = -1;
  Type type = Type::Int32();
};

class Resolver {
 public:
  Resolver(const std::string& left_name, const Schema* left,
           const std::string& right_name, const Schema* right)
      : left_name_(left_name),
        left_(left),
        right_name_(right_name),
        right_(right) {}

  Status Resolve(const std::string& name, BoundColumn* out) const {
    std::string qualifier, column = name;
    const size_t dot = name.find('.');
    if (dot != std::string::npos) {
      qualifier = name.substr(0, dot);
      column = name.substr(dot + 1);
    }
    if (qualifier.empty() || qualifier == left_name_) {
      const int idx = left_->ColumnIndex(column);
      if (idx >= 0) {
        *out = {0, idx, left_->column(idx).type};
        return Status::OK();
      }
      if (!qualifier.empty()) {
        return Status::NotFound("no column '" + column + "' in table '" +
                                qualifier + "'");
      }
    }
    if (right_ != nullptr && (qualifier.empty() || qualifier == right_name_)) {
      const int idx = right_->ColumnIndex(column);
      if (idx >= 0) {
        *out = {1, idx, right_->column(idx).type};
        return Status::OK();
      }
    }
    return Status::NotFound("unknown column '" + name + "'");
  }

 private:
  const std::string& left_name_;
  const Schema* left_;
  const std::string& right_name_;
  const Schema* right_;
};

Status BindValue(const SqlValue& value, const std::vector<SqlValue>& params,
                 const Type& type, TypedValue* out) {
  const SqlValue* v = &value;
  if (v->kind == SqlValue::Kind::kParam) {
    if (v->param_index < 0 ||
        v->param_index >= static_cast<int>(params.size())) {
      return Status::InvalidArgument(
          "missing value for parameter " + std::to_string(v->param_index + 1));
    }
    v = &params[static_cast<size_t>(v->param_index)];
    if (v->kind == SqlValue::Kind::kParam) {
      return Status::InvalidArgument("parameter bound to another '?'");
    }
  }
  switch (type.id()) {
    case TypeId::kInt32:
      if (v->kind != SqlValue::Kind::kInt) {
        return Status::InvalidArgument("expected an integer literal");
      }
      *out = TypedValue::Int32(static_cast<int32_t>(v->int_value));
      return Status::OK();
    case TypeId::kInt64:
      if (v->kind != SqlValue::Kind::kInt) {
        return Status::InvalidArgument("expected an integer literal");
      }
      *out = TypedValue::Int64(v->int_value);
      return Status::OK();
    case TypeId::kDouble:
      if (v->kind == SqlValue::Kind::kDouble) {
        *out = TypedValue::Double(v->double_value);
      } else if (v->kind == SqlValue::Kind::kInt) {
        *out = TypedValue::Double(static_cast<double>(v->int_value));
      } else {
        return Status::InvalidArgument("expected a numeric literal");
      }
      return Status::OK();
    case TypeId::kDate: {
      if (v->kind == SqlValue::Kind::kInt) {
        // Raw day count — the representation profiles/tools emit.
        *out = TypedValue::Date(static_cast<int32_t>(v->int_value));
        return Status::OK();
      }
      if (v->kind != SqlValue::Kind::kString) {
        return Status::InvalidArgument("expected a 'YYYY-MM-DD' date");
      }
      int y = 0, m = 0, d = 0;
      if (std::sscanf(v->string_value.c_str(), "%d-%d-%d", &y, &m, &d) != 3 ||
          m < 1 || m > 12 || d < 1 || d > 31) {
        return Status::InvalidArgument("bad date literal '" + v->string_value +
                                       "'");
      }
      *out = TypedValue::Date(MakeDate(y, m, d));
      return Status::OK();
    }
    case TypeId::kChar:
      if (v->kind != SqlValue::Kind::kString) {
        return Status::InvalidArgument("expected a string literal");
      }
      if (v->string_value.size() > type.width()) {
        return Status::InvalidArgument("string literal wider than CHAR(" +
                                       std::to_string(type.width()) + ")");
      }
      *out = TypedValue::Char(v->string_value);
      return Status::OK();
  }
  return Status::InvalidArgument("unsupported column type");
}

/// Hash-join and GROUP BY keys are widened to one 64-bit word per column,
/// which only integral, date and CHAR(<=8) columns fit; the operators
/// CHECK this, so client input is refused here instead.
Status CheckKeyable(const std::string& what, const std::string& name,
                    const Type& type) {
  if (IsKeyableType(type)) return Status::OK();
  return Status::InvalidArgument(what + " column '" + name + "' has type " +
                                 type.ToString() +
                                 ", which cannot be a key");
}

std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> cols;
  for (int c = 0; c < schema.num_columns(); ++c) cols.push_back(c);
  return cols;
}

std::string AggName(const SqlSelectItem& item, size_t index) {
  std::string name = item.count_star ? "count_star" : item.column;
  const size_t dot = name.find('.');
  if (dot != std::string::npos) name = name.substr(dot + 1);
  return name + "_" + std::to_string(index);
}

}  // namespace

Status PlanCompiler::Compile(const SelectStatement& stmt,
                             const std::vector<SqlValue>& params,
                             int reserved,
                             std::unique_ptr<QueryPlan>* out) const {
  if (reserved != 0) {
    return Status::InvalidArgument("Compile: third argument must be 0");
  }
  const Table* left = catalog_->Find(stmt.table);
  if (left == nullptr) {
    return Status::NotFound("unknown table '" + stmt.table + "'");
  }
  const Table* right = nullptr;
  if (stmt.has_join) {
    right = catalog_->Find(stmt.join.table);
    if (right == nullptr) {
      return Status::NotFound("unknown table '" + stmt.join.table + "'");
    }
  }
  Resolver resolver(stmt.table, &left->schema(), stmt.join.table,
                    right != nullptr ? &right->schema() : nullptr);

  // Split WHERE conjuncts by the scan they push down to.
  std::vector<std::unique_ptr<Predicate>> preds[2];
  for (const SqlCondition& cond : stmt.where) {
    BoundColumn col;
    UOT_RETURN_IF_ERROR(resolver.Resolve(cond.column, &col));
    TypedValue value;
    UOT_RETURN_IF_ERROR(BindValue(cond.value, params, col.type, &value));
    preds[col.side].push_back(Cmp(cond.op, Col(col.index, col.type),
                                  Lit(value, col.type)));
  }
  auto side_pred = [&preds](int side) -> std::unique_ptr<Predicate> {
    if (preds[side].empty()) return std::make_unique<TruePredicate>();
    if (preds[side].size() == 1) return std::move(preds[side][0]);
    return And(std::move(preds[side]));
  };

  PlanBuilder pb(catalog_->storage(), config_);
  PlanBuilder::Src current;
  // Maps a resolved (side, index) to the column's index in `current`.
  int right_offset = 0;

  if (!stmt.has_join) {
    current = pb.Select(
        "scan_" + stmt.table, PlanBuilder::Base(*left), side_pred(0),
        Projection::Identity(left->schema(), AllColumns(left->schema())));
  } else {
    // Join keys: accept the ON columns in either order.
    BoundColumn on_left, on_right;
    UOT_RETURN_IF_ERROR(resolver.Resolve(stmt.join.left_column, &on_left));
    UOT_RETURN_IF_ERROR(resolver.Resolve(stmt.join.right_column, &on_right));
    UOT_RETURN_IF_ERROR(
        CheckKeyable("join", stmt.join.left_column, on_left.type));
    UOT_RETURN_IF_ERROR(
        CheckKeyable("join", stmt.join.right_column, on_right.type));
    if (on_left.side == on_right.side) {
      return Status::InvalidArgument(
          "join condition must compare the two tables");
    }
    if (on_left.side == 1) std::swap(on_left, on_right);

    PlanBuilder::Src probe_in = pb.Select(
        "scan_" + stmt.table, PlanBuilder::Base(*left), side_pred(0),
        Projection::Identity(left->schema(), AllColumns(left->schema())));
    PlanBuilder::Src build_in = pb.Select(
        "scan_" + stmt.join.table, PlanBuilder::Base(*right), side_pred(1),
        Projection::Identity(right->schema(), AllColumns(right->schema())));
    BuildHashOperator* build =
        pb.Build("build_" + stmt.join.table, build_in, {on_right.index},
                 AllColumns(right->schema()));
    current = pb.Probe("probe_" + stmt.table, probe_in, build,
                       {on_left.index}, AllColumns(left->schema()));
    // Probe output: the probe side's columns first, then the build payload.
    right_offset = left->schema().num_columns();
  }
  auto current_index = [right_offset](const BoundColumn& col) {
    return col.side == 0 ? col.index : right_offset + col.index;
  };

  const bool aggregated =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SqlSelectItem& i) { return i.is_aggregate; });

  if (aggregated) {
    if (stmt.group_by.size() > 3) {
      return Status::InvalidArgument("at most 3 GROUP BY columns");
    }
    std::vector<int> group_cols;
    for (const std::string& name : stmt.group_by) {
      BoundColumn col;
      UOT_RETURN_IF_ERROR(resolver.Resolve(name, &col));
      UOT_RETURN_IF_ERROR(CheckKeyable("GROUP BY", name, col.type));
      group_cols.push_back(current_index(col));
    }
    // The aggregate's output is [group keys..., aggregates...]; out_cols
    // maps each select item to its position there so the result matches
    // the select list, not the operator's native order.
    std::vector<AggSpec> aggs;
    std::vector<int> out_cols;
    const int num_keys = static_cast<int>(group_cols.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SqlSelectItem& item = stmt.items[i];
      if (!item.is_aggregate) {
        BoundColumn col;
        UOT_RETURN_IF_ERROR(resolver.Resolve(item.column, &col));
        const auto key = std::find(group_cols.begin(), group_cols.end(),
                                   current_index(col));
        if (key == group_cols.end()) {
          return Status::InvalidArgument(
              "column '" + item.column +
              "' must appear in GROUP BY or inside an aggregate");
        }
        out_cols.push_back(
            static_cast<int>(std::distance(group_cols.begin(), key)));
        continue;
      }
      AggSpec spec;
      spec.fn = item.fn;
      spec.name = AggName(item, i);
      if (!item.count_star) {
        BoundColumn col;
        UOT_RETURN_IF_ERROR(resolver.Resolve(item.column, &col));
        spec.expr = Col(current_index(col), col.type);
      }
      out_cols.push_back(num_keys + static_cast<int>(aggs.size()));
      aggs.push_back(std::move(spec));
    }
    if (aggs.empty()) {
      return Status::InvalidArgument(
          "GROUP BY without an aggregate in the select list");
    }
    const int num_aggs = static_cast<int>(aggs.size());
    current = pb.Aggregate("agg", current, std::move(group_cols),
                           std::move(aggs));
    bool native_order = out_cols.size() ==
                        static_cast<size_t>(num_keys + num_aggs);
    for (size_t j = 0; native_order && j < out_cols.size(); ++j) {
      native_order = out_cols[j] == static_cast<int>(j);
    }
    if (!native_order) {
      current = pb.Select("project_agg", current,
                          std::make_unique<TruePredicate>(),
                          Projection::Identity(current.table->schema(),
                                               out_cols));
    }
  } else {
    // Bare-column select: project the requested columns (an extra
    // projection-only stage after a join; folded into the scan otherwise).
    std::vector<int> cols;
    for (const SqlSelectItem& item : stmt.items) {
      BoundColumn col;
      UOT_RETURN_IF_ERROR(resolver.Resolve(item.column, &col));
      cols.push_back(current_index(col));
    }
    current = pb.Select("project", current, std::make_unique<TruePredicate>(),
                        Projection::Identity(current.table->schema(), cols));
  }

  *out = pb.Finish(current);
  return Status::OK();
}

}  // namespace server
}  // namespace uot
