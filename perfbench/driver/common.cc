#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/timer.h"

namespace perfbench {

bool ParseOptions(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      out->smoke = true;
    } else if (arg == "--inject-mismatch") {
      out->inject_mismatch = true;
    } else if (has_value && arg == "--workload") {
      out->workload = argv[++i];
    } else if (has_value && arg == "--seed") {
      out->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (has_value && arg == "--seconds") {
      out->seconds = std::atof(argv[++i]);
    } else if (has_value && arg == "--trace") {
      out->trace = std::atoi(argv[++i]) != 0;
    } else if (has_value && arg == "--out") {
      out->out_dir = argv[++i];
    } else if (has_value && arg == "--git") {
      out->git_commit = argv[++i];
    } else if (has_value && arg == "--src-digest") {
      out->src_digest = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  if (out->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  if (!(out->seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return true;
}

int64_t Nanos() { return uot::NowNanos(); }

double NowSeconds() { return static_cast<double>(Nanos()) / 1e9; }

// ---------------------------------------------------------------- samples

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Tail TailOf(const std::vector<double>& v, double wanted) {
  Tail tail;
  tail.samples = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > wanted) continue;
    const size_t beyond = static_cast<size_t>(
        std::floor(static_cast<double>(v.size()) * (1.0 - p / 100.0)));
    if (beyond >= 10 || p == 50.0) {
      tail.percentile = p;
      tail.beyond = beyond;
      tail.value = Quantile(v, p / 100.0);
      return tail;
    }
  }
  return tail;
}

std::string TailNote(const Tail& tail) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples, %zu beyond",
                tail.percentile, tail.samples, tail.beyond);
  return buf;
}

Spread SpreadOf(const std::vector<double>& v) {
  Spread s;
  s.base = v.size();
  if (v.empty()) return s;
  s.median = Median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

// ----------------------------------------------------------------- report

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note,
                 bool in_json) {
  entries_.push_back(Entry{name, value, unit, note, in_json});
  std::printf("%s %-34s %14s %-6s %s\n", in_json ? "metric" : "detail",
              name.c_str(), Num(value).c_str(), unit.c_str(), note.c_str());
  std::fflush(stdout);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  Add(name, value, unit, note, !options_.trace);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  Add(name, value, unit, note, options_.trace);
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  Add(name, value, unit, note, false);
}

void Report::Count(const std::string& name,
                   const std::vector<double>& per_pass,
                   const std::string& unit, bool layer) {
  const Spread s = SpreadOf(per_pass);
  std::string note;
  if (s.exact()) {
    note = "exact: same in all " + std::to_string(s.base) + " passes";
  } else {
    note = "varies with thread interleaving: median of " +
           std::to_string(s.base) + " passes, spread [" + Num(s.min) + ", " +
           Num(s.max) + "]";
  }
  if (layer) {
    Layer(name, s.median, unit, note);
  } else {
    Detail(name, s.median, unit, note);
  }
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, JsonString(value));
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, Num(value));
}

void Report::Line(const std::string& text) {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::AddMismatch(const std::string& what) {
  ++mismatches_;
  if (mismatches_ <= 5) {
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
}

int Report::Finish() {
  std::string meta = "{";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) meta += ",";
    meta += JsonString(meta_[i].first) + ":" + meta_[i].second;
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());
  if (mismatches_ > 0) {
    std::printf("FAILED: %llu replies differ from the oracle\n",
                static_cast<unsigned long long>(mismatches_));
  }

  std::string metrics = "{";
  std::string all = "{";
  bool first_metric = true;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const std::string item = JsonString(e.name) + ":{\"value\":" +
                             Num(e.value) + ",\"unit\":" +
                             JsonString(e.unit) + "}";
    if (i > 0) all += ",";
    all += item;
    if (e.in_json) {
      if (!first_metric) metrics += ",";
      metrics += item;
      first_metric = false;
    }
  }
  metrics += "}";
  all += "}";

  const std::string head = "{\"correct\":" +
                           std::string(correct() ? "true" : "false") +
                           ",\"attempted\":" + std::to_string(attempted_) +
                           ",\"failed\":" + std::to_string(failed_);
  // The result file: everything this run measured plus the metadata.
  const std::string path = options_.out_dir + "/" + options_.workload +
                           "-seed" + std::to_string(options_.seed) +
                           "-trace" + (options_.trace ? "1" : "0") +
                           ".json";
  std::ofstream file(path);
  if (file) {
    file << head << ",\"meta\":" << meta << ",\"metrics\":" << all << "}\n";
    std::printf("result file: %s\n", path.c_str());
  }
  std::printf("%s,\"metrics\":%s}\n", head.c_str(), metrics.c_str());
  std::fflush(stdout);
  return correct() && attempted_ > 0 ? 0 : 1;
}

void AddMachineMeta(Report* report) {
  report->Meta("nproc",
               static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Meta("l2_bytes", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  report->Meta("l3_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * leaf, regs, 16);
    }
    cpu = brand;
    while (!cpu.empty() && cpu.back() == ' ') cpu.pop_back();
  }
#endif
  report->Meta("cpu", cpu);
  report->Meta("build_type", UOT_BENCH_BUILD_TYPE);
  report->Meta("compiler", UOT_BENCH_COMPILER);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB
}

// ----------------------------------------------------------------- oracle

namespace {

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool RunForked(const std::function<std::vector<std::string>()>& compute,
               std::vector<std::string>* out) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const std::vector<std::string> results = compute();
      const uint64_t count = results.size();
      bool ok = WriteAll(fds[1], &count, sizeof(count));
      for (const std::string& s : results) {
        const uint64_t len = s.size();
        ok = ok && WriteAll(fds[1], &len, sizeof(len)) &&
             WriteAll(fds[1], s.data(), s.size());
      }
      code = ok ? 0 : 2;
    } catch (...) {
      code = 3;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  out->clear();
  uint64_t count = 0;
  bool ok = ReadAll(fds[0], &count, sizeof(count));
  for (uint64_t i = 0; ok && i < count; ++i) {
    uint64_t len = 0;
    ok = ReadAll(fds[0], &len, sizeof(len));
    if (!ok) break;
    std::string s(len, '\0');
    ok = len == 0 || ReadAll(fds[0], s.data(), len);
    out->push_back(std::move(s));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool TimeSetUpsInChildren(
    int count, const std::function<std::pair<double, double>()>& set_up,
    std::vector<double>* generate_s, std::vector<double>* setup_s) {
  for (int i = 0; i < count; ++i) {
    std::vector<std::string> times;
    const bool ok = RunForked(
        [&set_up] {
          const std::pair<double, double> t = set_up();
          char buf[2][40];
          std::snprintf(buf[0], sizeof(buf[0]), "%.17g", t.first);
          std::snprintf(buf[1], sizeof(buf[1]), "%.17g", t.second);
          return std::vector<std::string>{buf[0], buf[1]};
        },
        &times);
    if (!ok || times.size() != 2) return false;
    generate_s->push_back(std::strtod(times[0].c_str(), nullptr));
    setup_s->push_back(std::strtod(times[1].c_str(), nullptr));
  }
  return true;
}

namespace {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ParseNumber(std::string_view field, double* out) {
  if (field.empty() || field.size() > 60) return false;
  char buf[64];
  std::memcpy(buf, field.data(), field.size());
  buf[field.size()] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + field.size();
}

bool SameField(std::string_view a, std::string_view b) {
  if (a == b) return true;
  double x = 0, y = 0;
  if (!ParseNumber(a, &x) || !ParseNumber(b, &y)) return false;
  const double scale = std::max({std::fabs(x), std::fabs(y), 1e-9});
  return std::fabs(x - y) <= 1e-6 * scale;
}

}  // namespace

bool SameRows(const std::string& expected, const std::string& actual) {
  if (expected == actual) return true;
  const std::vector<std::string_view> want = Split(expected, '\n');
  const std::vector<std::string_view> got = Split(actual, '\n');
  if (want.size() != got.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == got[i]) continue;
    const std::vector<std::string_view> wf = Split(want[i], ',');
    const std::vector<std::string_view> gf = Split(got[i], ',');
    if (wf.size() != gf.size()) return false;
    for (size_t j = 0; j < wf.size(); ++j) {
      if (!SameField(wf[j], gf[j])) return false;
    }
  }
  return true;
}

// ------------------------------------------------------------------ spans

const char* SpanKindName(int kind) {
  static const char* const kNames[kNumSpanKinds] = {
      "workload", "request", "plan_build", "parse",
      "compile",  "choose",  "execute",    "round_trip"};
  return kind >= 0 && kind < kNumSpanKinds ? kNames[kind] : "unknown";
}

SpanRecorder::SpanRecorder() {
  std::vector<std::string> names;
  for (int k = 0; k < kNumSpanKinds; ++k) names.push_back(SpanKindName(k));
  session_.SetOperatorNames(std::move(names));
}

void SpanRecorder::Span(SpanKind kind, int64_t start_ns, int64_t end_ns,
                        int32_t request_id, uint32_t tid) {
  session_.EmitComplete(uot::obs::TraceEventType::kWorkOrder, tid, start_ns,
                        end_ns, kind, request_id);
}

std::map<std::string, double> SpanRecorder::SelfMillis() const {
  std::vector<uot::obs::TraceEvent> events = session_.SortedEvents();
  // Parents before their children: by track, start, then longer first.
  std::sort(events.begin(), events.end(),
            [](const uot::obs::TraceEvent& a, const uot::obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.arg0 < b.arg0;  // equal intervals: outer kind first
            });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0 && events[i].tid != events[i - 1].tid) stack.clear();
    while (!stack.empty() &&
           events[stack.back()].ts_ns + events[stack.back()].dur_ns <=
               events[i].ts_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += events[i].dur_ns;
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < events.size(); ++i) {
    self[SpanKindName(events[i].arg0)] +=
        static_cast<double>(events[i].dur_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool SpanRecorder::Write(const std::string& path) const {
  return session_.WriteChromeJson(path).ok();
}

}  // namespace perfbench
