#include "layers.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* OpGroupName(int group) {
  static const char* const kNames[kNumOpGroups] = {"sel",  "build", "probe",
                                                   "agg",  "sort",  "other"};
  return group >= 0 && group < kNumOpGroups ? kNames[group] : "other";
}

OpGroup GroupOfOperator(const std::string& name) {
  const auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("sel") || starts("scan") || starts("filter") ||
      starts("compute") || starts("project")) {
    return kSel;
  }
  if (starts("build")) return kBuild;
  if (starts("probe")) return kProbe;
  if (starts("agg")) return kAgg;
  if (starts("sort")) return kSort;
  return kOther;
}

void LayerAccounting::BeginPass() { passes_.emplace_back(); }

void LayerAccounting::Add(const uot::ExecutionStats& stats, int64_t build_ns,
                          int64_t execute_ns) {
  if (passes_.empty()) BeginPass();
  Pass& pass = passes_.back();

  std::vector<int> group_of(stats.operators.size());
  for (size_t op = 0; op < stats.operators.size(); ++op) {
    const uot::OperatorStats& o = stats.operators[op];
    const int g = GroupOfOperator(o.name);
    group_of[op] = g;
    pass.work_orders += static_cast<double>(o.num_work_orders);
    pass.task_ns[g] += static_cast<double>(o.total_task_ns);
    pass.group_work_orders[g] += static_cast<double>(o.num_work_orders);
    task_ns_total_ += static_cast<double>(o.total_task_ns);
  }
  double max_buffered = 0;
  for (const uot::EdgeStats& e : stats.edges) {
    pass.transfers += static_cast<double>(e.transfers);
    pass.blocks += static_cast<double>(e.blocks_delivered);
    pass.bytes += static_cast<double>(e.bytes_delivered);
    max_buffered =
        std::max(max_buffered, static_cast<double>(e.max_buffered_bytes));
  }
  pass.max_buffered = std::max(pass.max_buffered, max_buffered);
  pass.peak_temp = std::max(
      pass.peak_temp, static_cast<double>(stats.PeakTemporaryBytes()));
  pass.peak_hash_table = std::max(
      pass.peak_hash_table, static_cast<double>(stats.PeakHashTableBytes()));
  for (const uot::FusedChainStats& chain : stats.fused_chains) {
    pass.fused_work_orders += static_cast<double>(chain.work_orders);
    if (!chain.stages.empty()) {
      pass.fused_rows += static_cast<double>(chain.stages.front().rows_in);
    }
  }

  // Wall time of the session [query_start, query_end], split among the
  // work orders running at each instant (an instant with k running work
  // orders gives 1/k of its time to each one's operator kind); instants
  // with none running are the scheduler's own (uncovered) time.
  const int64_t qs = stats.query_start_ns;
  const int64_t qe = std::max(stats.query_end_ns, qs);
  struct Edge {
    int64_t t;
    int delta;
    int group;
  };
  std::vector<Edge> edges;
  edges.reserve(stats.records.size() * 2);
  for (const uot::WorkOrderRecord& r : stats.records) {
    const int64_t s = std::clamp(r.start_ns, qs, qe);
    const int64_t e = std::clamp(r.end_ns, qs, qe);
    if (e <= s) continue;
    const int g = r.op >= 0 && static_cast<size_t>(r.op) < group_of.size()
                      ? group_of[static_cast<size_t>(r.op)]
                      : kOther;
    edges.push_back(Edge{s, +1, g});
    edges.push_back(Edge{e, -1, g});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });
  double share_ns[kNumOpGroups] = {};
  int running[kNumOpGroups] = {};
  int total_running = 0;
  double uncovered_ns = 0;
  int64_t prev = qs;
  for (const Edge& edge : edges) {
    const double dt = static_cast<double>(edge.t - prev);
    if (dt > 0) {
      if (total_running == 0) {
        uncovered_ns += dt;
      } else {
        for (int g = 0; g < kNumOpGroups; ++g) {
          share_ns[g] += dt * running[g] / total_running;
        }
      }
    }
    prev = edge.t;
    running[edge.group] += edge.delta;
    total_running += edge.delta;
  }
  uncovered_ns += static_cast<double>(qe - prev);

  const double session_ns = static_cast<double>(qe - qs);
  worker_wall_ns_total_ += session_ns * workers_;
  const double admission_ns = static_cast<double>(stats.admission_wait_ns);
  const double request_ns = static_cast<double>(build_ns + execute_ns);
  request_ms_.push_back(request_ns / 1e6);
  build_ms_.push_back(static_cast<double>(build_ns) / 1e6);
  admission_ms_.push_back(admission_ns / 1e6);
  uncovered_ms_.push_back(uncovered_ns / 1e6);
  for (int g = 0; g < kNumOpGroups; ++g) {
    share_ms_[g].push_back(share_ns[g] / 1e6);
  }
  // What Engine::Execute spent outside admission and the session itself
  // (session construction, teardown).
  unattributed_ms_.push_back(
      (static_cast<double>(execute_ns) - admission_ns - session_ns) / 1e6);
}

void LayerAccounting::Emit(Report* report, bool admission) const {
  const auto per_pass = [this](auto field) {
    std::vector<double> v;
    for (const Pass& p : passes_) v.push_back(field(p));
    return v;
  };
  report->Layer("plan.build_ms", Mean(build_ms_), "ms", "mean per request");
  if (admission) {
    report->Layer("exec.admission_wait_ms_p50", Quantile(admission_ms_, 0.5),
                  "ms", std::to_string(admission_ms_.size()) + " samples");
    const Tail adm = TailOf(admission_ms_, 99);
    report->Layer("exec.admission_wait_ms_p99", adm.value, "ms",
                  TailNote(adm));
  }
  report->Count("scheduler.work_orders",
                per_pass([](const Pass& p) { return p.work_orders; }),
                "count", true);
  report->Count("scheduler.transfers",
                per_pass([](const Pass& p) { return p.transfers; }), "count",
                true);
  report->Count("scheduler.blocks_delivered",
                per_pass([](const Pass& p) { return p.blocks; }), "count",
                true);
  report->Count("scheduler.bytes_delivered_mb",
                per_pass([](const Pass& p) { return p.bytes / 1e6; }), "MB",
                true);
  report->Layer("scheduler.worker_idle_frac",
                 worker_wall_ns_total_ > 0
                     ? 1.0 - task_ns_total_ / worker_wall_ns_total_
                     : 0.0,
                 "ratio", "1 - sum(task) / (workers x session wall)");
  report->Layer("scheduler.uncovered_ms", Mean(uncovered_ms_), "ms",
                 "mean per request: session wall with no work order running");
  for (int g = 0; g < kNumOpGroups; ++g) {
    const std::string base = std::string("operators.") + OpGroupName(g);
    double task = 0, wos = 0;
    for (const Pass& p : passes_) {
      task += p.task_ns[g];
      wos += p.group_work_orders[g];
    }
    const bool layer = g != kOther;  // no operator kind lands there yet
    std::vector<double> task_ms =
        per_pass([g](const Pass& p) { return p.task_ns[g] / 1e6; });
    const double wo_us = wos > 0 ? task / wos / 1e3 : 0.0;
    if (layer) {
      report->Layer(base + ".task_ms", Median(task_ms), "ms",
                     "median per pass, summed over workers");
      report->Layer(base + ".wo_us", wo_us, "us", "mean per work order");
    } else {
      report->Detail(base + ".task_ms", Median(task_ms), "ms",
                     "median per pass, summed over workers");
      report->Detail(base + ".wo_us", wo_us, "us", "mean per work order");
    }
  }
  report->Count(
      "join.peak_hash_table_mb",
      per_pass([](const Pass& p) { return p.peak_hash_table / 1e6; }), "MB",
      true);
  report->Count("storage.peak_temp_mb",
                per_pass([](const Pass& p) { return p.peak_temp / 1e6; }),
                "MB", true);
  report->Count("storage.max_buffered_mb",
                per_pass([](const Pass& p) { return p.max_buffered / 1e6; }),
                "MB", true);
  report->Count("fused.work_orders",
                per_pass([](const Pass& p) { return p.fused_work_orders; }),
                "count", true);
  report->Count("fused.rows",
                per_pass([](const Pass& p) { return p.fused_rows; }), "count",
                true);
  report->Layer("unattributed_ms", Mean(unattributed_ms_), "ms",
                 "mean per request: Execute time outside admission and "
                 "session");

  // The breakdown: per-request means that add up to the request wall time.
  double sum = Mean(build_ms_) + Mean(admission_ms_) + Mean(uncovered_ms_) +
               Mean(unattributed_ms_);
  std::string parts;
  for (int g = 0; g < kNumOpGroups; ++g) {
    const double share = Mean(share_ms_[g]);
    sum += share;
    report->Detail(std::string("operators.") + OpGroupName(g) + ".wall_ms",
                   share, "ms", "mean per request: wall share");
  }
  const double wall = Mean(request_ms_);
  report->Detail("request_ms", wall, "ms",
                 "mean per request, " + std::to_string(request_ms_.size()) +
                     " requests");
  char line[256];
  std::snprintf(line, sizeof(line),
                "breakdown: plan.build + admission + operators.*.wall + "
                "scheduler.uncovered + unattributed = %.6f ms; request wall "
                "= %.6f ms",
                sum, wall);
  report->Line(line);
}

}  // namespace perfbench
