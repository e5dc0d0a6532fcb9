// serve-mix: an in-process TextServer on loopback, four TCP connections
// (two in fused pipeline mode), repeated SELECT templates with varying
// literals plus TPCH 1/6, and a seeded share of ad-hoc templates that
// outnumber the plan cache. Phase A is an open loop at a fixed rate,
// timed from each request's due time; phase B is a closed loop that
// gives capacity.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "layers.h"
#include "model/uot_chooser.h"
#include "server/catalog.h"
#include "server/frontend.h"
#include "server/plan_compiler.h"
#include "server/sql_parser.h"
#include "server/text_server.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace perfbench {
namespace {

constexpr int kConnections = 4;
constexpr int kFusedConnections = 2;  // connections 0 and 1
/// Phase-A offered load, all connections together: about half of the
/// phase-B capacity of this mix (645 qps at seed 1 on a 4-core x86 VM,
/// SF 0.01).
constexpr double kPhaseARate = 320.0;
/// One request in eight is ad hoc.
constexpr int kAdHocOneIn = 8;

struct ServeParams {
  double scale_factor;
  int adhoc_templates;
  double phase_a_s;
  double phase_b_s;
  int latency_windows;
  int replay_per_mode;
};

ServeParams ParamsFor(const Options& options) {
  ServeParams p;
  p.scale_factor = options.smoke ? 0.002 : 0.01;
  p.adhoc_templates = options.smoke ? 160 : 512;
  p.phase_a_s = 0.6 * options.seconds;
  p.phase_b_s = 0.4 * options.seconds;
  p.latency_windows = options.smoke ? 1 : 3;
  p.replay_per_mode = options.smoke ? 24 : 96;
  return p;
}

// ------------------------------------------------------------- statements

/// The repeated template mix (the same eight slots as the server latency
/// bench): SELECT templates whose literal varies per request, plus TPCH 6
/// and TPCH 1. Literals come from [10, 50), so the set of texts is finite
/// and the oracle covers every one.
std::string RepeatedStatement(int slot, int literal) {
  switch (slot) {
    case 0:
      return "select count(*), sum(l_quantity) from lineitem where "
             "l_quantity < " + std::to_string(literal);
    case 1:
      return "select l_returnflag, sum(l_extendedprice) from lineitem "
             "group by l_returnflag";
    case 2:
      return "select count(*) from orders where o_totalprice < " +
             std::to_string(literal * 1000);
    case 3:
      return "tpch 6";
    case 4:
      return "select l_linestatus, count(*) from lineitem where "
             "l_discount < 0." + std::string(1, '0' + literal % 10) +
             " group by l_linestatus";
    case 5:
      return "select count(*) from lineitem join orders on l_orderkey = "
             "o_orderkey where l_quantity > " + std::to_string(literal);
    case 6:
      return "tpch 1";
    default:
      return "select max(l_extendedprice), min(l_extendedprice) from "
             "lineitem where l_quantity = " +
             std::to_string(literal % 50 + 1);
  }
}
constexpr int kSlots = 8;
constexpr int kLiteralLo = 10, kLiteralHi = 50;

struct Shape {
  const char* from;
  const char* join;  // "" or "<table> on <a> = <b>"
  std::vector<const char*> agg_cols;
  std::vector<std::pair<const char*, int>> preds;  // column, literal kind
  std::vector<const char*> groups;
};

// Literal kinds for predicates.
enum { kQty = 0, kFrac, kPrice, kDate, kSmallInt, kBalance };

std::string Literal(int kind, std::mt19937_64* rng) {
  auto pick = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  switch (kind) {
    case kQty: return std::to_string(pick(1, 50));
    case kFrac: return "0.0" + std::to_string(pick(1, 9));
    case kPrice: return std::to_string(pick(1, 90) * 1000);
    case kDate: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "'%d-%02d-01'", pick(1992, 1998),
                    pick(1, 12));
      return buf;
    }
    case kSmallInt: return std::to_string(pick(0, 24));
    default: return std::to_string(pick(-900, 9000));
  }
}

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> kShapes = {
      {"lineitem", "",
       {"l_quantity", "l_extendedprice", "l_discount", "l_tax"},
       {{"l_quantity", kQty}, {"l_discount", kFrac}, {"l_tax", kFrac},
        {"l_extendedprice", kPrice}, {"l_shipdate", kDate}},
       {"l_returnflag", "l_linestatus", "l_linenumber"}},
      {"orders", "",
       {"o_totalprice"},
       {{"o_totalprice", kPrice}, {"o_orderdate", kDate}},
       {"o_orderstatus", "o_shippriority"}},
      {"customer", "",
       {"c_acctbal"},
       {{"c_acctbal", kBalance}, {"c_nationkey", kSmallInt}},
       {"c_nationkey"}},
      {"lineitem", "orders on l_orderkey = o_orderkey",
       {"l_extendedprice", "o_totalprice", "l_quantity"},
       {{"l_quantity", kQty}, {"o_totalprice", kPrice},
        {"o_orderdate", kDate}},
       {"o_orderstatus", "l_returnflag"}},
      {"orders", "customer on o_custkey = c_custkey",
       {"o_totalprice", "c_acctbal"},
       {{"o_totalprice", kPrice}, {"c_nationkey", kSmallInt}},
       {"c_nationkey", "o_orderstatus"}},
  };
  return kShapes;
}

/// One random ad-hoc statement of shape `shape`: aggregate, column,
/// predicate and group-by drawn at random. Group-by columns are integers or
/// CHAR(1): the aggregate operator keys only integral and CHAR(<=8)
/// columns.
std::string RandomAdHoc(const Shape& shape, std::mt19937_64* rng) {
  auto pick = [rng](size_t n) {
    return static_cast<size_t>(
        std::uniform_int_distribution<size_t>(0, n - 1)(*rng));
  };
  static const char* const kFns[] = {"sum", "min", "max", "avg", "count"};
  const int num_aggs = 1 + static_cast<int>(pick(2));
  const int group = static_cast<int>(pick(shape.groups.size() + 1)) - 1;
  std::string select;
  if (group >= 0 && pick(2) == 0) {
    select += shape.groups[static_cast<size_t>(group)];
  }
  for (int a = 0; a < num_aggs; ++a) {
    if (!select.empty()) select += ", ";
    const size_t fn = pick(6);
    if (fn == 5) {
      select += "count(*)";
    } else {
      select += std::string(kFns[fn]) + "(" +
                shape.agg_cols[pick(shape.agg_cols.size())] + ")";
    }
  }
  std::string sql = "select " + select + " from " + shape.from;
  if (shape.join[0] != '\0') sql += std::string(" join ") + shape.join;
  static const char* const kOps[] = {"<", ">", "<=", ">="};
  const int num_preds = 1 + static_cast<int>(pick(2));
  for (int p = 0; p < num_preds; ++p) {
    const auto& [col, kind] = shape.preds[pick(shape.preds.size())];
    sql += p == 0 ? " where " : " and ";
    sql += std::string(col) + " " + kOps[pick(4)] + " " + Literal(kind, rng);
  }
  if (group >= 0) {
    sql += std::string(" group by ") +
           shape.groups[static_cast<size_t>(group)];
  }
  return sql;
}

/// Every statement text the run can send, drawn from the seed: the
/// repeated templates with every literal, and `count` ad-hoc statements
/// with pairwise distinct templates.
struct StatementPool {
  std::vector<std::string> texts;        // all distinct texts
  std::vector<std::vector<int>> slots;   // slot -> text ids per literal
  std::vector<int> adhoc;                // text ids
};

StatementPool BuildPool(uint64_t seed, int adhoc_count) {
  StatementPool pool;
  std::map<std::string, int> ids;
  auto intern = [&pool, &ids](const std::string& text) {
    auto [it, inserted] = ids.emplace(text, static_cast<int>(ids.size()));
    if (inserted) pool.texts.push_back(text);
    return it->second;
  };
  pool.slots.resize(kSlots);
  for (int slot = 0; slot < kSlots; ++slot) {
    for (int lit = kLiteralLo; lit < kLiteralHi; ++lit) {
      pool.slots[slot].push_back(intern(RepeatedStatement(slot, lit)));
    }
  }
  // The same shape composition for every seed (single-table shapes three
  // times as often as joins), so seeds vary literals and columns, not how
  // much work the ad-hoc share does.
  static const int kShapeCycle[8] = {0, 1, 0, 2, 0, 1, 3, 4};
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::set<std::string> templates;
  for (int attempts = 0;
       static_cast<int>(pool.adhoc.size()) < adhoc_count &&
       attempts < adhoc_count * 50;
       ++attempts) {
    const Shape& shape = Shapes()[static_cast<size_t>(
        kShapeCycle[pool.adhoc.size() % 8])];
    const std::string sql = RandomAdHoc(shape, &rng);
    uot::server::SelectStatement stmt;
    if (!uot::server::ParseSelect(sql, &stmt).ok()) continue;
    if (!templates.insert(stmt.TemplateKey()).second) continue;
    pool.adhoc.push_back(intern(sql));
  }
  return pool;
}

/// The request stream of one connection in one phase: text ids. Every
/// kAdHocOneIn-th request is ad hoc, walking a seeded permutation of the
/// ad-hoc pool (so each template recurs only after all others); the rest
/// cycle through the repeated slots with a random literal each.
class RequestStream {
 public:
  RequestStream(const StatementPool& pool, uint64_t seed, int connection,
                int phase)
      : pool_(pool),
        rng_(seed * 1000003ULL + static_cast<uint64_t>(connection) * 101 +
             static_cast<uint64_t>(phase)),
        adhoc_order_(pool.adhoc) {
    std::shuffle(adhoc_order_.begin(), adhoc_order_.end(), rng_);
    // Connections start at different points of the mix.
    slot_counter_ = connection * 2;
  }

  int Next() {
    if (++count_ % kAdHocOneIn == 0 && !adhoc_order_.empty()) {
      return adhoc_order_[adhoc_next_++ % adhoc_order_.size()];
    }
    const std::vector<int>& variants =
        pool_.slots[static_cast<size_t>(slot_counter_++ % kSlots)];
    return variants[std::uniform_int_distribution<size_t>(
        0, variants.size() - 1)(rng_)];
  }

 private:
  const StatementPool& pool_;
  std::mt19937_64 rng_;
  std::vector<int> adhoc_order_;
  size_t adhoc_next_ = 0;
  int count_ = 0;
  int slot_counter_ = 0;
};

// ------------------------------------------------------------------ client

/// A blocking line-protocol client on one TCP connection.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  /// Sends one statement and reads its reply. True iff the reply is OK;
  /// `rows` gets the result rows (newline-terminated lines).
  bool Roundtrip(const std::string& statement, std::string* rows) {
    rows->clear();
    const std::string line = statement + "\n";
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    std::string reply;
    if (!ReadLine(&reply)) return false;
    if (reply.rfind("OK", 0) != 0) return false;
    while (true) {
      if (!ReadLine(&reply)) return false;
      if (reply == "END") return true;
      *rows += reply;
      *rows += '\n';
    }
  }

 private:
  bool ReadLine(std::string* out) {
    size_t newline;
    while ((newline = buffer_.find('\n', scanned_)) == std::string::npos) {
      scanned_ = buffer_.size();
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    out->assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    scanned_ = 0;
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
  size_t scanned_ = 0;
};

// ------------------------------------------------------------------ server

struct Server {
  std::unique_ptr<uot::StorageManager> storage;
  std::unique_ptr<uot::TpchDatabase> db;
  std::unique_ptr<uot::server::Catalog> catalog;
  std::unique_ptr<uot::server::FrontEnd> frontend;
  std::unique_ptr<uot::server::TextServer> tcp;
  std::vector<std::unique_ptr<Client>> clients;

  ~Server() {
    clients.clear();
    if (tcp != nullptr) tcp->Stop();
    if (frontend != nullptr) frontend->Shutdown();
    tcp.reset();
    frontend.reset();
    catalog.reset();
    db.reset();
    storage.reset();
  }
};

uot::server::FrontEndConfig ServingConfig(int workers) {
  uot::server::FrontEndConfig config;
  config.engine.num_workers = workers;
  config.chooser.threads = workers;
  return config;
}

/// Counts of the served histograms between two points in time.
struct HistogramMark {
  std::vector<uint64_t> counts;
};

HistogramMark Mark(const uot::obs::Histogram* h) {
  HistogramMark m;
  if (h == nullptr) return m;
  for (size_t i = 0; i < h->num_buckets(); ++i) {
    m.counts.push_back(h->bucket_count(i));
  }
  return m;
}

/// The q-quantile (ns) of the samples recorded between `before` and now,
/// linearly interpolated inside its bucket.
double DeltaQuantileNs(const uot::obs::Histogram* h,
                       const HistogramMark& before, double q,
                       uint64_t* samples) {
  *samples = 0;
  if (h == nullptr) return 0;
  std::vector<uint64_t> delta;
  for (size_t i = 0; i < h->num_buckets(); ++i) {
    const uint64_t then = i < before.counts.size() ? before.counts[i] : 0;
    delta.push_back(h->bucket_count(i) - then);
    *samples += delta.back();
  }
  if (*samples == 0) return 0;
  const double target = q * static_cast<double>(*samples);
  double seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (seen + static_cast<double>(delta[i]) >= target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(h->bucket_upper_bound(i - 1));
      double hi = static_cast<double>(h->bucket_upper_bound(i));
      if (i + 1 == delta.size()) hi = static_cast<double>(h->Max());
      const double frac = (target - seen) / static_cast<double>(delta[i]);
      return lo + frac * (hi - lo);
    }
    seen += static_cast<double>(delta[i]);
  }
  return static_cast<double>(h->Max());
}

// ------------------------------------------------------------------ phases

struct Sample {
  double due_s;       // relative to phase start
  double latency_ms;  // from due time (phase A) or send time (phase B)
  double roundtrip_ms;
  double late_ms;
  int text;
};

struct ConnectionResult {
  std::vector<Sample> samples;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  int first_mismatch = -1;
};

/// Runs one phase on every connection. `rate` > 0: open loop, each
/// connection sending at rate / kConnections, staggered; 0: closed loop.
/// When `traced` is set, every request records request/round_trip spans.
std::vector<ConnectionResult> RunPhase(
    Server* server, const StatementPool& pool,
    const std::vector<std::string>& expected, uint64_t seed, int phase,
    double seconds, double rate, SpanRecorder* spans,
    std::atomic<int32_t>* request_ids) {
  std::vector<ConnectionResult> results(kConnections);
  std::vector<std::thread> threads;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const double per_connection = rate / kConnections;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionResult& result = results[static_cast<size_t>(c)];
      Client& client = *server->clients[static_cast<size_t>(c)];
      RequestStream stream(pool, seed, c, phase);
      std::string rows;
      for (int i = 0;; ++i) {
        Clock::time_point due;
        if (rate > 0) {
          const double offset =
              (static_cast<double>(i) + static_cast<double>(c) / kConnections) /
              per_connection;
          if (offset >= seconds) break;
          due = start + std::chrono::nanoseconds(
                            static_cast<int64_t>(offset * 1e9));
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          if (due - start >= std::chrono::nanoseconds(
                                 static_cast<int64_t>(seconds * 1e9))) {
            break;
          }
        }
        const int text = stream.Next();
        const Clock::time_point sent = Clock::now();
        const int64_t sent_ns = Nanos();
        const bool ok =
            client.Roundtrip(pool.texts[static_cast<size_t>(text)], &rows);
        const Clock::time_point done = Clock::now();
        if (spans != nullptr) {
          const int32_t id = request_ids->fetch_add(1) + 1;
          const int64_t done_ns = Nanos();
          spans->Span(kSpanRequest, sent_ns, done_ns, id,
                      static_cast<uint32_t>(c + 1));
          spans->Span(kSpanRoundTrip, sent_ns, done_ns, id,
                      static_cast<uint32_t>(c + 1));
        }
        if (!ok) {
          ++result.failed;
          continue;
        }
        if (!SameRows(expected[static_cast<size_t>(text)], rows)) {
          if (result.mismatched++ == 0) result.first_mismatch = text;
        }
        using Ms = std::chrono::duration<double, std::milli>;
        result.samples.push_back(Sample{
            std::chrono::duration<double>(due - start).count(),
            Ms(done - due).count(), Ms(done - sent).count(),
            Ms(sent - due).count(), text});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

void CollectMismatches(const std::vector<ConnectionResult>& results,
                       const StatementPool& pool, const char* phase,
                       Report* report, uint64_t* failed) {
  for (const ConnectionResult& r : results) {
    *failed += r.failed;
    for (uint64_t m = 0; m < r.mismatched; ++m) {
      report->AddMismatch(std::string(phase) + ": '" +
                          pool.texts[static_cast<size_t>(r.first_mismatch)] +
                          "'");
    }
  }
}

/// Latency figures of one sample set split into time windows: each figure
/// is computed per window and the median over windows is reported, so one
/// stall of the machine moves one window, not the result.
struct WindowedLatency {
  std::vector<double> geomean, p50, p95, p99;
  Tail p95_tail, p99_tail;  // of the smallest window, for the notes
  size_t samples = 0;
};

WindowedLatency Windowed(const std::vector<std::vector<Sample>>& windows,
                         const std::map<int, int>& slot_of_text) {
  WindowedLatency out;
  for (size_t w = 0; w < windows.size(); ++w) {
    std::vector<double> latency;
    std::vector<std::vector<double>> by_slot(kSlots);
    for (const Sample& s : windows[w]) {
      latency.push_back(s.latency_ms);
      const auto it = slot_of_text.find(s.text);
      if (it != slot_of_text.end()) {
        by_slot[static_cast<size_t>(it->second)].push_back(s.latency_ms);
      }
    }
    std::vector<double> slot_medians;
    for (const std::vector<double>& v : by_slot) {
      if (!v.empty()) slot_medians.push_back(Median(v));
    }
    out.samples += latency.size();
    out.geomean.push_back(GeoMean(slot_medians));
    out.p50.push_back(Quantile(latency, 0.5));
    const Tail t95 = TailOf(latency, 95), t99 = TailOf(latency, 99);
    out.p95.push_back(t95.value);
    out.p99.push_back(t99.value);
    if (w == 0 || t99.samples < out.p99_tail.samples) {
      out.p95_tail = t95;
      out.p99_tail = t99;
    }
  }
  return out;
}

/// "[1.000, 2.000]".
std::string Listed(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", i > 0 ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Generates the TPC-H data and registers it; returns generation time.
double GenerateData(const ServeParams& params, uint64_t seed,
                    Server* server) {
  const double t0 = NowSeconds();
  server->storage = std::make_unique<uot::StorageManager>();
  server->db = std::make_unique<uot::TpchDatabase>(server->storage.get());
  uot::TpchConfig data;
  data.scale_factor = params.scale_factor;
  data.seed = seed;
  server->db->Generate(data);
  const double generate_s = NowSeconds() - t0;
  server->catalog =
      std::make_unique<uot::server::Catalog>(server->storage.get());
  server->catalog->RegisterTpch(server->db.get());
  return generate_s;
}

/// Front end, server, connections (the first kFusedConnections switched to
/// fused mode) and warm-up: every repeated template once per connection.
/// Checks the warm-up replies when `expected` is set.
bool StartServing(int workers, const StatementPool& pool,
                  const std::vector<std::string>* expected, Server* server,
                  Report* report) {
  server->frontend = std::make_unique<uot::server::FrontEnd>(
      ServingConfig(workers), server->catalog.get());
  server->tcp =
      std::make_unique<uot::server::TextServer>(server->frontend.get());
  if (!server->tcp->Start(0).ok()) return false;
  std::string rows;
  for (int c = 0; c < kConnections; ++c) {
    server->clients.push_back(
        std::make_unique<Client>(server->tcp->port()));
    Client& client = *server->clients.back();
    if (!client.connected()) return false;
    if (c < kFusedConnections &&
        !client.Roundtrip("SET PIPELINE_MODE fused", &rows)) {
      return false;
    }
    for (int slot = 0; slot < kSlots; ++slot) {
      const int text = pool.slots[slot][0];
      if (!client.Roundtrip(pool.texts[static_cast<size_t>(text)], &rows)) {
        return false;
      }
      if (expected != nullptr &&
          !SameRows((*expected)[static_cast<size_t>(text)], rows)) {
        report->AddMismatch("warm-up: '" +
                            pool.texts[static_cast<size_t>(text)] + "'");
      }
    }
  }
  return true;
}

/// The oracle: every statement text on a single-threaded front end with
/// the plan cache disabled, in vectorized mode. Runs in a child process.
std::vector<std::string> OracleRows(const uot::server::Catalog* catalog,
                                    const StatementPool& pool) {
  uot::server::FrontEndConfig config = ServingConfig(1);
  config.plan_cache_capacity = 0;
  uot::server::FrontEnd oracle(config, catalog);
  std::vector<std::string> rows;
  for (const std::string& text : pool.texts) {
    uot::server::Request request;
    request.text = text;
    const uot::server::Response response = oracle.Handle(request);
    rows.push_back(response.ok ? response.rows_csv
                               : "\x01" + response.error);
  }
  oracle.Shutdown();
  return rows;
}

/// Re-executes statements the served connections sent, in process, so the
/// per-layer accounting sees their ExecutionStats; the driver times its
/// own ParseSelect / PlanCompiler::Compile / BuildTpchPlan /
/// CostModelUotChooser::ChoosePlan calls on the same texts.
struct Replay {
  std::vector<double> parse_us, compile_us, choose_us;
};

void ReplayStatements(
    Server* server, const StatementPool& pool,
    const std::vector<std::string>& expected,
    const std::vector<std::pair<int, uot::PipelineMode>>& requests,
    int passes, int workers, LayerAccounting* layers, SpanRecorder* spans,
    std::atomic<int32_t>* request_ids, Replay* out, Report* report) {
  uot::server::PlanCompiler compiler(server->catalog.get(),
                                     uot::PlanBuilderConfig{});
  uot::CostModelUotChooser::Options chooser_options;
  chooser_options.threads = workers;
  uot::CostModelUotChooser chooser(chooser_options);
  constexpr uint32_t kTrack = 100;
  for (int pass = 0; pass < passes; ++pass) {
    layers->BeginPass();
    for (const auto& [text_id, mode] : requests) {
      const std::string& text = pool.texts[static_cast<size_t>(text_id)];
      const int32_t id = request_ids->fetch_add(1) + 1;
      const int64_t t0 = Nanos();
      std::unique_ptr<uot::QueryPlan> plan;
      bool sql = false;
      if (text.rfind("tpch ", 0) == 0) {
        plan = uot::BuildTpchPlan(std::atoi(text.c_str() + 5),
                                  *server->db, uot::PlanBuilderConfig{});
        spans->Span(kSpanPlanBuild, t0, Nanos(), id, kTrack);
      } else {
        sql = true;
        uot::server::SelectStatement stmt;
        const bool parsed = uot::server::ParseSelect(text, &stmt).ok();
        const int64_t t1 = Nanos();
        const bool compiled =
            parsed && compiler.Compile(stmt, {}, 0, &plan).ok();
        const int64_t t2 = Nanos();
        if (!compiled) {
          report->AddMismatch("replay could not compile '" + text + "'");
          continue;
        }
        spans->Span(kSpanParse, t0, t1, id, kTrack);
        spans->Span(kSpanCompile, t1, t2, id, kTrack);
        out->parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        out->compile_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      }
      const int64_t built = Nanos();
      uot::ExecConfig exec;
      exec.pipeline_mode = mode;
      const uot::ExecutionStats stats =
          server->frontend->engine()->Execute(plan.get(), exec);
      const int64_t executed = Nanos();
      spans->Span(kSpanExecute, built, executed, id, kTrack);
      int64_t end = executed;
      if (sql) {
        // The server's miss path: choose per-edge UoTs from the run's
        // delivered bytes (at a nominal 16 bytes per row).
        std::vector<uot::EdgeEstimate> estimates;
        for (const uot::EdgeStats& e : stats.edges) {
          estimates.push_back(uot::EdgeEstimate{e.bytes_delivered / 16, 16});
        }
        const std::vector<uot::UotChoice> choices =
            chooser.ChoosePlan(*plan, estimates);
        end = Nanos();
        spans->Span(kSpanChoose, executed, end, id, kTrack);
        out->choose_us.push_back(static_cast<double>(end - executed) / 1e3);
        if (choices.size() != plan->streaming_edges().size()) {
          report->AddMismatch("ChoosePlan size for '" + text + "'");
        }
      }
      spans->Span(kSpanRequest, t0, end, id, kTrack);
      layers->Add(stats, built - t0, executed - built);
      if (!SameRows(expected[static_cast<size_t>(text_id)],
                    uot::CanonicalRows(*plan->result_table()))) {
        report->AddMismatch("replay: '" + text + "'");
      }
    }
  }
}

}  // namespace

int RunServeWorkload(const Options& options, Report* report) {
  const ServeParams params = ParamsFor(options);
  const int workers = static_cast<int>(std::thread::hardware_concurrency());
  const StatementPool pool = BuildPool(options.seed, params.adhoc_templates);

  report->Meta("workload", options.workload);
  report->Meta("seed", static_cast<double>(options.seed));
  report->Meta("scale_factor", params.scale_factor);
  report->Meta("block_bytes", static_cast<double>(uot::TpchConfig{}.block_bytes));
  report->Meta("workers", workers);
  report->Meta("connections", kConnections);
  report->Meta("fused_connections", kFusedConnections);
  report->Meta("phase_a_rate_qps", kPhaseARate);
  report->Meta("phase_a_s", params.phase_a_s);
  report->Meta("phase_b_s", params.phase_b_s);
  report->Meta("adhoc_share", 1.0 / kAdHocOneIn);
  report->Meta("adhoc_templates", static_cast<double>(pool.adhoc.size()));
  report->Meta("distinct_statements", static_cast<double>(pool.texts.size()));
  report->Meta("plan_cache_capacity",
               static_cast<double>(uot::server::FrontEndConfig{}
                                       .plan_cache_capacity));

  // Set-up: data, front end, server, connections, warm-up. It is timed
  // several times: in forked children first, then once in this process,
  // which keeps its set-up for the run. The oracle runs in a child too,
  // between generation and server start, untimed.
  const int setups = options.smoke ? 2 : 7;
  std::vector<double> setup_s, generate_s;
  if (!TimeSetUpsInChildren(
          setups - 1,
          [&] {
            Server child;
            const double gen = GenerateData(params, options.seed, &child);
            const double t = NowSeconds();
            if (!StartServing(workers, pool, nullptr, &child, report)) {
              throw std::runtime_error("server set-up failed");
            }
            return std::make_pair(gen, gen + (NowSeconds() - t));
          },
          &generate_s, &setup_s)) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  auto server = std::make_unique<Server>();
  const double gen = GenerateData(params, options.seed, server.get());
  const double oracle_start = NowSeconds();
  std::vector<std::string> expected;
  const uot::server::Catalog* catalog = server->catalog.get();
  const bool oracle_ok = RunForked(
      [catalog, &pool] { return OracleRows(catalog, pool); }, &expected);
  const double oracle_s = NowSeconds() - oracle_start;
  if (!oracle_ok || expected.size() != pool.texts.size()) {
    std::fprintf(stderr, "oracle failed\n");
    return 1;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!expected[i].empty() && expected[i][0] == '\x01') {
      std::fprintf(stderr, "oracle rejected '%s': %s\n",
                   pool.texts[i].c_str(), expected[i].c_str() + 1);
      return 1;
    }
  }
  if (options.inject_mismatch) {
    expected[static_cast<size_t>(pool.slots[0][0])] += "injected,row\n";
  }
  const double serve_start = NowSeconds();
  if (!StartServing(workers, pool, &expected, server.get(), report)) {
    std::fprintf(stderr, "server set-up failed\n");
    return 1;
  }
  generate_s.push_back(gen);
  setup_s.push_back(gen + (NowSeconds() - serve_start));

  uot::server::FrontEnd& frontend = *server->frontend;
  uot::server::PlanCache& cache = *frontend.plan_cache();
  const uot::obs::Histogram* handle_hist =
      frontend.metrics()->FindHistogram("server.request_latency_ns");
  const uot::obs::Histogram* admission_hist =
      frontend.metrics()->FindHistogram("engine.admission_wait_ns");
  const uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                 invalid0 = cache.invalidations(),
                 evictions0 = cache.evictions(),
                 evals0 = frontend.model_evaluations();
  const HistogramMark handle_mark = Mark(handle_hist);
  const HistogramMark admission_mark = Mark(admission_hist);

  // Phase A: open loop at the fixed rate.
  uint64_t failed = 0, attempted = 0;
  std::atomic<int32_t> request_ids{0};
  const std::vector<ConnectionResult> phase_a =
      RunPhase(server.get(), pool, expected, options.seed, 1,
               params.phase_a_s, kPhaseARate, nullptr, &request_ids);
  CollectMismatches(phase_a, pool, "phase A", report, &failed);
  uint64_t handle_n = 0, admission_n = 0;
  const double handle_p50_ms =
      DeltaQuantileNs(handle_hist, handle_mark, 0.5, &handle_n) / 1e6;
  const double admission_p50_ms =
      DeltaQuantileNs(admission_hist, admission_mark, 0.5, &admission_n) /
      1e6;
  const double admission_p99_ms =
      DeltaQuantileNs(admission_hist, admission_mark, 0.99, &admission_n) /
      1e6;

  std::vector<Sample> a_samples;
  for (const ConnectionResult& r : phase_a) {
    attempted += r.samples.size() + r.failed;
    a_samples.insert(a_samples.end(), r.samples.begin(), r.samples.end());
  }
  std::sort(a_samples.begin(), a_samples.end(),
            [](const Sample& x, const Sample& y) { return x.due_s < y.due_s; });
  const int windows = params.latency_windows;
  std::vector<std::vector<Sample>> a_windows(static_cast<size_t>(windows));
  std::map<int, int> slot_of_text;
  for (int slot = 0; slot < kSlots; ++slot) {
    for (int text : pool.slots[slot]) slot_of_text[text] = slot;
  }
  std::vector<double> a_latency, a_roundtrip;
  double late_max = 0;
  for (const Sample& s : a_samples) {
    const int w = std::min(
        windows - 1, static_cast<int>(s.due_s / params.phase_a_s * windows));
    a_windows[static_cast<size_t>(w)].push_back(s);
    a_latency.push_back(s.latency_ms);
    a_roundtrip.push_back(s.roundtrip_ms);
    late_max = std::max(late_max, s.late_ms);
  }
  // Backlog check: later requests must not see steadily higher latency.
  const size_t third = a_latency.size() / 3;
  const double first_third = Median(std::vector<double>(
      a_latency.begin(), a_latency.begin() + static_cast<long>(third)));
  const double last_third = Median(std::vector<double>(
      a_latency.end() - static_cast<long>(third), a_latency.end()));
  const bool backlog = third > 0 && last_third > 2.0 * first_third &&
                       last_third - first_third > 5.0;
  char backlog_line[200];
  std::snprintf(backlog_line, sizeof(backlog_line),
                "phase A backlog: %s (median latency first third %.3f ms, "
                "last third %.3f ms; generator at most %.3f ms late)",
                backlog ? "GROWING - the fixed rate exceeds capacity"
                        : "none",
                first_third, last_third, late_max);
  report->Line(backlog_line);

  // Phase B: closed loop. Under --trace 1, quarters alternate untraced /
  // traced to measure the cost of the driver's spans.
  SpanRecorder spans;
  // Capacity per one-second window of each slice; qps is the median.
  std::vector<double> untraced_rates, traced_rates;
  std::vector<Sample> b_samples;  // untraced, in time order
  std::vector<std::pair<int, uot::PipelineMode>> replay;
  const int slices = options.trace ? 4 : 1;
  for (int slice = 0; slice < slices; ++slice) {
    const bool traced = slice % 2 == 1;
    const double slice_s = params.phase_b_s / slices;
    const std::vector<ConnectionResult> phase_b = RunPhase(
        server.get(), pool, expected, options.seed, 2 + slice, slice_s, 0,
        traced ? &spans : nullptr, &request_ids);
    CollectMismatches(phase_b, pool, "phase B", report, &failed);
    const int slice_windows = std::max(1, static_cast<int>(slice_s));
    const double window_s = slice_s / slice_windows;
    std::vector<double> completions(static_cast<size_t>(slice_windows), 0);
    std::vector<Sample> slice_samples;
    for (size_t c = 0; c < phase_b.size(); ++c) {
      for (const Sample& sample : phase_b[c].samples) {
        const double done_s = sample.due_s + sample.latency_ms / 1e3;
        const int w = static_cast<int>(done_s / window_s);
        if (w >= 0 && w < slice_windows) ++completions[static_cast<size_t>(w)];
      }
      if (!traced) {
        slice_samples.insert(slice_samples.end(), phase_b[c].samples.begin(),
                             phase_b[c].samples.end());
      }
      attempted += phase_b[c].samples.size() + phase_b[c].failed;
      if (slice != 0) continue;
      // Statements to replay: the first ones of one fused and one
      // vectorized connection.
      const uot::PipelineMode mode =
          static_cast<int>(c) < kFusedConnections
              ? uot::PipelineMode::kFused
              : uot::PipelineMode::kVectorized;
      if (c != 0 && c != static_cast<size_t>(kFusedConnections)) continue;
      for (size_t i = 0; i < phase_b[c].samples.size() &&
                         static_cast<int>(i) < params.replay_per_mode;
           ++i) {
        replay.emplace_back(phase_b[c].samples[i].text, mode);
      }
    }
    for (double n : completions) {
      (traced ? traced_rates : untraced_rates).push_back(n / window_s);
    }
    std::sort(slice_samples.begin(), slice_samples.end(),
              [](const Sample& x, const Sample& y) {
                return x.due_s < y.due_s;
              });
    b_samples.insert(b_samples.end(), slice_samples.begin(),
                     slice_samples.end());
  }
  // Phase-B latency windows: equal chronological shares of the samples.
  std::vector<std::vector<Sample>> b_windows(static_cast<size_t>(windows));
  for (size_t i = 0; i < b_samples.size(); ++i) {
    b_windows[i * static_cast<size_t>(windows) / b_samples.size()].push_back(
        b_samples[i]);
  }
  const double qps = Median(untraced_rates);
  report->set_attempted(attempted);
  report->set_failed(failed);

  const uint64_t hits = cache.hits() - hits0;
  const uint64_t lookups =
      hits + (cache.misses() - misses0) + (cache.invalidations() - invalid0);
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  const uint64_t evictions = cache.evictions() - evictions0;
  const uint64_t evaluations = frontend.model_evaluations() - evals0;

  // End-to-end latencies come from the closed loop (phase B): the
  // fixed-rate latencies of phase A amplify every change in the machine's
  // speed through queueing, and spread more than any allowed bound from run
  // to run on a shared 4-core VM. They are printed as fixed_rate.* details.
  const WindowedLatency closed = Windowed(b_windows, slot_of_text);
  const WindowedLatency fixed = Windowed(a_windows, slot_of_text);
  const std::string of_b =
      "phase B, median of " + std::to_string(windows) + " windows ";
  const std::string of_a =
      "phase A at " + std::to_string(static_cast<int>(kPhaseARate)) +
      " qps from due time, median of " + std::to_string(windows) +
      " windows ";
  std::string note = "median of set-ups [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    note += (i > 0 ? ", " : "") + std::to_string(setup_s[i]);
  }
  note += "] s; oracle " + std::to_string(oracle_s) + " s not included";
  report->EndToEnd("setup_s", Median(setup_s), "s", note);
  report->EndToEnd("qps", qps, "1/s",
                   "phase B closed loop on " + std::to_string(kConnections) +
                       " connections, median of " +
                       std::to_string(untraced_rates.size()) +
                       " one-second windows, " +
                       std::to_string(closed.samples) + " requests");
  report->EndToEnd("query_ms_geomean", Median(closed.geomean), "ms",
                   of_b + Listed(closed.geomean) +
                       ": geomean over the repeated templates of their "
                       "median latency");
  report->EndToEnd("latency_ms_p50", Median(closed.p50), "ms",
                   of_b + Listed(closed.p50) + ", " +
                       std::to_string(closed.samples) + " samples in all");
  report->Detail("latency_ms_p95", Median(closed.p95), "ms",
                   of_b + Listed(closed.p95) +
                       ", smallest: " + TailNote(closed.p95_tail));
  report->Detail("latency_ms_p99", Median(closed.p99), "ms",
                   of_b + Listed(closed.p99) +
                       ", smallest: " + TailNote(closed.p99_tail));
  report->Detail("fixed_rate.query_ms_geomean", Median(fixed.geomean), "ms",
                 of_a + Listed(fixed.geomean));
  report->Detail("fixed_rate.latency_ms_p50", Median(fixed.p50), "ms",
                 of_a + Listed(fixed.p50) + ", " +
                     std::to_string(fixed.samples) + " samples in all");
  report->Detail("fixed_rate.latency_ms_p95", Median(fixed.p95), "ms",
                 of_a + Listed(fixed.p95) +
                     ", smallest: " + TailNote(fixed.p95_tail));
  report->Detail("fixed_rate.latency_ms_p99", Median(fixed.p99), "ms",
                 of_a + Listed(fixed.p99) +
                     ", smallest: " + TailNote(fixed.p99_tail));
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB",
                   "getrusage, oracle excluded");
  report->Detail("failed_ratio",
                 attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "ratio",
                 std::to_string(failed) + " of " + std::to_string(attempted) +
                     " requests failed");
  report->Detail("oracle_s", oracle_s, "s",
                 "single-threaded front end, no plan cache, forked");
  report->Detail("loadgen.late_ms_max", late_max, "ms",
                 "validity check: how late phase A sent");
  report->Detail("loadgen.backlog", backlog ? 1 : 0, "flag",
                 "1 = later phase-A requests saw steadily higher latency");
  report->Layer("server.cache_hit_ratio", hit_ratio, "ratio",
                std::to_string(hits) + " hits of " + std::to_string(lookups) +
                    " lookups");
  report->Layer("server.cache_evictions", static_cast<double>(evictions),
                "count", "over phases A and B");
  report->Layer("model.evaluations", static_cast<double>(evaluations),
                "count",
                "over " + std::to_string(attempted) + " requests");

  if (options.trace) {
    report->Layer("tpch.generate_s", Median(generate_s), "s",
                  "median of " + std::to_string(setups) + " set-ups");
    report->Layer("exec.admission_wait_ms_p50", admission_p50_ms, "ms",
                  "phase A, engine.admission_wait_ns, " +
                      std::to_string(admission_n) + " samples");
    report->Layer("exec.admission_wait_ms_p99", admission_p99_ms, "ms",
                  "phase A, engine.admission_wait_ns, " +
                      std::to_string(admission_n) + " samples");
    report->Detail("server.handle_ms_p50", handle_p50_ms, "ms",
                   "phase A, server.request_latency_ns, " +
                       std::to_string(handle_n) + " samples");
    report->Detail("server.io_ms_p50",
                   Quantile(a_roundtrip, 0.5) - handle_p50_ms, "ms",
                   "phase A: round trip p50 - Handle p50");
    const double traced_qps = Median(traced_rates);
    report->Layer("obs.overhead_frac", qps > 0 ? 1.0 - traced_qps / qps : 0,
                  "ratio",
                  "1 - traced qps / untraced qps, alternating phase-B "
                  "quarters");

    LayerAccounting layers(workers);
    Replay timings;
    ReplayStatements(server.get(), pool, expected, replay, 3, workers,
                     &layers, &spans, &request_ids, &timings, report);
    report->Line("replay: " + std::to_string(replay.size()) +
                 " phase-B statements x 3 passes, in process");
    layers.Emit(report, /*admission=*/false);
    report->Detail("server.parse_us", Mean(timings.parse_us), "us",
                   "mean of " + std::to_string(timings.parse_us.size()) +
                       " replayed ParseSelect calls");
    report->Detail("server.compile_us", Mean(timings.compile_us), "us",
                   "mean of replayed PlanCompiler::Compile calls");
    report->Detail("model.choose_us", Mean(timings.choose_us), "us",
                   "mean of replayed ChoosePlan calls");
    const std::map<std::string, double> self = spans.SelfMillis();
    for (const auto& [kind, ms] : self) {
      report->Detail("span_self." + kind + "_ms", ms, "ms",
                     "total self time of traced spans");
    }
    const std::string span_path = options.out_dir + "/" + options.workload +
                                  "-seed" + std::to_string(options.seed) +
                                  ".spans.json";
    if (spans.Write(span_path)) report->Line("span file: " + span_path);
  }
  return 0;
}

}  // namespace perfbench
