// The warehouse-day benchmark: a seeded, single-threaded day of analyst
// reads and one maintenance transaction per day against the 2VNL engine at
// its defaults (n = 2, no scan, maintenance or apply options set).
//
// Each day's base events come from warehouse::DailySalesWorkload. The
// summary view is kept by SummaryView::ApplyDelta through
// baselines::VnlAdapter and carries a secondary index on
// (city, product_line). A day is one maintenance transaction applied in
// chunks; prepared VnlTable::SnapshotSelect statements run between the
// chunks; the day ends with commit, garbage collection and a checkpoint
// (BufferPool::FlushAll). The load is a closed loop with one client: 2VNL
// readers never block, so interleaving reads with maintenance on one
// thread gives the reads that concurrent readers would see, without
// scheduler noise.
//
// The amount of work is fixed by the workload and --seconds, never by a
// clock, so every count repeats exactly for a given seed. Every read is
// checked against an independent model of the view (view_model.h).
//
//   warehouse_day --workload dashboard|report|refresh --seed N
//                 --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics and reads no engine counter
// struct: only DiskManager page transfers (DiskPages below) and the
// table's page and row counts. --trace 1 runs the same day with spans and
// counter deltas recorded around every call into the engine and prints
// the per-layer metrics next to its own end-to-end figures; run.py sets
// them against an untraced process to report the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/vnl_adapter.h"
#include "catalog/table.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "trace.h"
#include "view_model.h"
#include "warehouse/view_maintenance.h"
#include "warehouse/workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using wvm::Row;
using wvm::Value;

const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The one engine counter the end-to-end run reads: page transfers between
// the buffer pool and the page store.
uint64_t DiskPages(const wvm::DiskManager& disk) {
  const wvm::DiskStats s = disk.stats();
  return s.page_reads + s.page_writes;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kDashboard, kReport, kRefresh };

struct Spec {
  Kind kind;
  const char* name;
  int cities;
  int lines;
  int events_per_day;
  double zipf_theta;
  double retraction_prob;
  int preload_days;
  // Fixed work: timed days = round(seconds * days_per_second), sized so
  // one run measures about --seconds on the reference host.
  double days_per_second;
  int chunks_per_day;
  size_t pool_pages;
  // Readers per phase (a phase follows each chunk and the checkpoint).
  int sessions_per_phase;
  int queries_per_session;
};

// dashboard: short sessions opened after the last commit, point reads and
//   (city, product_line) series through the indexes; the view fits in the
//   buffer pool.
// report: sessions open across a chunk or a commit, GROUP BY and selective
//   filters over a view several times the buffer pool; the index is
//   bypassed and many tuples resolve to pre-update versions.
// refresh: the maintenance window; large skewed deltas with many
//   retractions (repeated keys, deletes, re-inserts) and a small steady
//   stream of point reads.
const Spec kSpecs[] = {
    {Kind::kDashboard, "dashboard", 120, 20, 5000, 0.6, 0.03, 28, 2.2, 4,
     4096, 80, 8},
    {Kind::kReport, "report", 200, 20, 8000, 0.6, 0.03, 28, 1.05, 4, 384, 1,
     3},
    {Kind::kRefresh, "refresh", 200, 20, 60000, 0.95, 0.45, 4, 2.6, 20, 4096,
     1, 16},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Queries and their checks

enum QueryType { kPoint, kSeries, kGroup, kFilter, kNumTypes };
const char* const kTypeNames[kNumTypes] = {"point", "series", "report_group",
                                           "report_filter"};
const char* const kSelectSpans[kNumTypes] = {
    "core.select.point", "core.select.series", "core.select.report_group",
    "core.select.report_filter"};

const char* const kSql[] = {
    "SELECT total_sales, support FROM warehouse WHERE city = :city AND "
    "state = :state AND product_line = :line AND date = :date",
    "SELECT date, total_sales, support FROM warehouse WHERE city = :city "
    "AND product_line = :line",
    "SELECT product_line, SUM(total_sales), SUM(support), COUNT(*) FROM "
    "warehouse GROUP BY product_line",
    "SELECT city, state, product_line, date, total_sales, support FROM "
    "warehouse WHERE date = :date AND total_sales >= :min_total",
};

Value DateValue(int32_t raw) {
  return Value::Date(raw / 10000, raw / 100 % 100, raw % 100);
}
int32_t DateOfDay(int day) { return 19961000 + (day - 1) % 28 + 1; }

int64_t AsInt(const Value& v) {
  return v.type() == wvm::TypeId::kDouble ? std::llround(v.AsDouble())
                                          : v.AsInt64();
}

// What a read asked for, enough to recompute its expected answer.
struct ReadSpec {
  QueryType type = kPoint;
  GroupId target;      // point: the group; series: city, state, line
  int32_t date = 0;    // filter
  int64_t min_total = 0;
};

wvm::query::ParamMap ParamsOf(const ReadSpec& r) {
  switch (r.type) {
    case kPoint:
      return {{"city", Value::String(r.target.city)},
              {"state", Value::String(r.target.state)},
              {"line", Value::String(r.target.line)},
              {"date", DateValue(r.target.date)}};
    case kSeries:
      return {{"city", Value::String(r.target.city)},
              {"line", Value::String(r.target.line)}};
    case kFilter:
      return {{"date", DateValue(r.date)},
              {"min_total", Value::Int64(r.min_total)}};
    default:
      return {};
  }
}

// Compares a read's result with the model's snapshot at the session's
// version. Returns an empty string when they agree.
std::string CheckRead(const ReadSpec& r, const wvm::query::QueryResult& res,
                      const Snapshot& snap) {
  const std::vector<Row>& rows = res.rows;
  switch (r.type) {
    case kPoint: {
      auto it = snap.groups.find(KeyOf(r.target));
      if (it == snap.groups.end()) return "point target not in the model";
      if (rows.size() != 1) return "point read row count differs";
      const Agg got{AsInt(rows[0][0]), AsInt(rows[0][1])};
      if (!(got == it->second)) return "point read value differs";
      return "";
    }
    case kSeries: {
      std::map<int32_t, Agg> want;
      for (int d = 1; d <= 28; ++d) {
        const int32_t date = DateOfDay(d);
        auto it = snap.groups.find(
            KeyOf(r.target.city, r.target.state, r.target.line, date));
        if (it != snap.groups.end()) want[date] = it->second;
      }
      std::map<int32_t, Agg> got;
      for (const Row& row : rows) {
        got[row[0].AsDateRaw()] = Agg{AsInt(row[1]), AsInt(row[2])};
      }
      if (got.size() != rows.size() || got.size() != want.size()) {
        return "series row count differs";
      }
      for (const auto& [date, agg] : want) {
        auto g = got.find(date);
        if (g == got.end() || !(g->second == agg)) {
          return "series value differs";
        }
      }
      return "";
    }
    case kGroup: {
      std::map<std::string, LineAgg> got;
      int64_t total = 0;
      for (const Row& row : rows) {
        got[row[0].AsString()] =
            LineAgg{AsInt(row[1]), AsInt(row[2]), AsInt(row[3])};
        total += AsInt(row[1]);
      }
      if (got.size() != rows.size() || got != snap.by_line) {
        return "GROUP BY differs from the model";
      }
      // Conservation: the view's total equals the signed sum of every
      // event amount applied up to this version.
      if (total != snap.signed_total) {
        return "GROUP BY total breaks conservation";
      }
      return "";
    }
    case kFilter: {
      std::map<std::string, Agg> want;
      for (const GroupId& id : snap.ids) {
        if (id.date != r.date) continue;
        const Agg& agg = snap.groups.at(KeyOf(id));
        if (agg.sum >= r.min_total) want[KeyOf(id)] = agg;
      }
      std::map<std::string, Agg> got;
      for (const Row& row : rows) {
        got[KeyOf(row[0].AsString(), row[1].AsString(), row[2].AsString(),
                  row[3].AsDateRaw())] = Agg{AsInt(row[4]), AsInt(row[5])};
      }
      if (got.size() != rows.size() || got != want) {
        return "filter result differs from the model";
      }
      return "";
    }
    default:
      return "unknown read type";
  }
}

// Position of an aggregate column in each read type's result, which the
// self-test perturbs.
size_t ValueColumn(QueryType t) {
  switch (t) {
    case kSeries:
    case kGroup:
      return 1;
    case kFilter:
      return 4;
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Measurements

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  return v[idx];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// A fixed multiply chain: a diagnostic of how fast the host runs right
// now, printed next to the metrics (never folded into them).
volatile uint64_t g_calibration_sink = 0;
double CalibrationMs() {
  volatile uint64_t mul = 6364136223846793005ULL;
  const uint64_t m = mul;
  uint64_t x = 1;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 100'000'000; ++i) x = x * m + 1442695040888963407ULL;
  g_calibration_sink = x;
  return SecondsSince(t0) * 1e3;
}

// Host-wide steal time so far, in seconds (0 where /proc/stat is absent).
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (uint64_t& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0.0;
}

// Counters gathered only by the traced pass.
struct LayerCounters {
  uint64_t selects = 0;
  uint64_t routed = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_reconstructed = 0;
  uint64_t bytes_copied = 0;
  uint64_t current_reads = 0;
  uint64_t pre_update_reads = 0;
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t events = 0;
  uint64_t keys = 0;
  uint64_t groups_touched = 0;
  uint64_t index_probes = 0;
  uint64_t page_pins = 0;
  uint64_t gc_reclaimed = 0;
  uint64_t checkpoint_writes = 0;
  double phys_per_live_sum = 0;
  uint64_t phys_per_live_days = 0;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  double setup_s = 0;
  std::vector<double> read_us[kNumTypes];
  double read_s = 0;
  double maint_s = 0;
  uint64_t timed_events = 0;
  // Per timed day: reads per second spent reading, and base events per
  // second of maintenance. The end-to-end rates are their medians over the
  // days, so a day the host stalls moves them less than a run-wide mean.
  std::vector<double> day_reads_per_s;
  std::vector<double> day_maint_rate;
  int timed_days = 0;
  uint64_t disk_pages = 0;
  uint64_t heap_pages = 0;
  uint64_t live_rows = 0;
  uint64_t revives = 0;
  uint64_t deletes = 0;
  int selftest_tried = 0;
  int selftest_caught = 0;
  double calib_before_ms = 0;
  double calib_after_ms = 0;
  std::vector<double> parse_us;
  // Traced pass only.
  LayerCounters layer;

  std::vector<double> AllReads() const {
    std::vector<double> all;
    for (const auto& v : read_us) all.insert(all.end(), v.begin(), v.end());
    return all;
  }
  double ReadP50() const { return Median(AllReads()); }
  double ReadsPerSecond() const { return Median(day_reads_per_s); }
  double MaintRate() const { return Median(day_maint_rate); }
};

// ---------------------------------------------------------------------------
// One run of a workload

class Run {
 public:
  Run(const Spec& spec, uint64_t seed, int seconds, Tracer* tracer)
      : spec_(spec),
        seed_(seed),
        timed_days_(std::max(
            2, static_cast<int>(std::lround(seconds * spec.days_per_second)))),
        trace_target_(tracer),
        pool_(spec.pool_pages, &disk_),
        rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(spec.kind)) {}

  Outcome Execute(Clock::time_point setup_start) {
    if (!Setup()) return std::move(out_);
    out_.setup_s = SecondsSince(setup_start);
    CheckAfterSetup();
    out_.calib_before_ms = CalibrationMs();

    // Spans and counter deltas cover the timed days only.
    tracer_ = trace_target_;
    if (tracer_ != nullptr) RebuildPlainCopy();
    const uint64_t disk0 = DiskPages(disk_);
    const wvm::BufferPoolStats pool0 =
        tracer_ ? pool_.stats() : wvm::BufferPoolStats{};
    for (int i = 0; i < timed_days_ && out_.problems.size() < 20; ++i) {
      pinned_day_ = spec_.kind == Kind::kRefresh && i == timed_days_ / 2;
      if (!Day(spec_.preload_days + 1 + i, /*timed=*/true)) break;
      if (tracer_ != nullptr) RebuildPlainCopy();
    }
    out_.calib_after_ms = CalibrationMs();
    out_.timed_days = timed_days_;
    out_.disk_pages = DiskPages(disk_) - disk0;
    if (tracer_ != nullptr) {
      out_.layer.evictions = pool_.stats().evictions - pool0.evictions;
      Probes();
    }
    out_.heap_pages = table_->physical_pages();
    out_.live_rows = model_.live_groups();
    out_.revives = model_.revives();
    out_.deletes = model_.deletes();
    SelfTest();
    if (model_.anomalies() != 0) Problem("impossible delta generated");
    return std::move(out_);
  }

 private:
  void Problem(std::string what) {
    out_.correct = false;
    if (out_.problems.size() < 20) out_.problems.push_back(std::move(what));
  }
  // Counts one operation; a failed one is also a problem.
  bool Op(const wvm::Status& st, const char* what) {
    ++out_.attempted;
    if (st.ok()) return true;
    ++out_.failed;
    Problem(std::string(what) + ": " + st.ToString());
    return false;
  }

  bool Setup() {
    wvm::warehouse::DailySalesConfig config;
    config.num_cities = spec_.cities;
    config.num_product_lines = spec_.lines;
    config.events_per_batch = spec_.events_per_day;
    config.zipf_theta = spec_.zipf_theta;
    config.retraction_prob = spec_.retraction_prob;
    config.seed = seed_;
    gen_ = std::make_unique<wvm::warehouse::DailySalesWorkload>(config);

    wvm::Schema schema = gen_->view().view_schema();
    if (!Op(schema.AddSecondaryIndex("by_city_line", {"city", "product_line"}),
            "secondary index")) {
      return false;
    }
    auto adapter = wvm::baselines::VnlAdapter::Create(&pool_, schema, /*n=*/2);
    if (!Op(adapter.status(), "create engine")) return false;
    adapter_ = std::move(adapter.value());
    engine_ = adapter_->engine();
    table_ = adapter_->table();

    for (int t = 0; t < kNumStatements; ++t) {
      const Clock::time_point t0 = Clock::now();
      auto stmt = wvm::sql::ParseSelect(kSql[t]);
      out_.parse_us.push_back(SecondsSince(t0) * 1e6);
      if (!Op(stmt.status(), "parse")) return false;
      stmts_[t] = std::move(stmt.value());
    }
    for (int day = 1; day <= spec_.preload_days; ++day) {
      if (!Day(day, /*timed=*/false)) return false;
    }
    return true;
  }

  // Not timed: the preloaded view agrees with the model.
  void CheckAfterSetup() {
    const Snapshot* snap = model_.At(engine_->current_vn());
    if (snap == nullptr) return Problem("no model snapshot after preload");
    if (table_->physical_rows() != snap->groups.size()) {
      Problem("preloaded view row count differs from the model");
    }
  }

  // One day: a maintenance transaction applied in chunks with readers in
  // between, then commit, garbage collection and a checkpoint. Preload
  // days apply the whole delta at once and run no readers.
  bool Day(int day, bool timed) {
    day_ = day;
    day_reads_ = 0;
    day_read_s_ = 0;
    const wvm::warehouse::DeltaBatch batch = gen_->MakeBatch(day);
    const int chunks = timed ? spec_.chunks_per_day : 1;
    std::vector<wvm::warehouse::DeltaBatch> parts(chunks);
    for (size_t i = 0; i < batch.size(); ++i) {
      parts[i * chunks / batch.size()].push_back(batch[i]);
    }
    if (!carried_deletes_.empty()) {
      model_.CarryDeletesOver(carried_deletes_);
      carried_deletes_.clear();
    }

    double maint = 0;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "baselines.begin");
      if (!Op(adapter_->BeginMaintenance(), "begin maintenance")) return false;
    }
    maint += SecondsSince(t0);
    for (int k = 0; k < chunks; ++k) {
      if (timed) BeforeChunk(k, chunks);
      t0 = Clock::now();
      {
        ScopedSpan span(tracer_, "warehouse.apply_chunk");
        auto applied = gen_->view().ApplyDelta(adapter_.get(), parts[k]);
        if (!Op(applied.status(), "apply delta")) return false;
        if (tracer_ != nullptr) {
          const auto& st = applied.value();
          out_.layer.events += st.events;
          out_.layer.keys += st.keys_coalesced;
          out_.layer.groups_touched += st.groups_touched;
          out_.layer.index_probes += st.index_probes;
          out_.layer.page_pins += st.page_pins;
        }
      }
      maint += SecondsSince(t0);
      model_.ApplyChunk(parts[k]);
      if (timed) AfterChunk(k, chunks);
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "baselines.commit");
      if (!Op(adapter_->CommitMaintenance(), "commit")) return false;
    }
    maint += SecondsSince(t0);
    if (pinned_day_ && timed) carried_deletes_ = model_.TakeDeletes();
    if (timed || day == spec_.preload_days) {
      model_.Commit(engine_->current_vn());
    } else {
      model_.EndTxn();
    }
    if (tracer_ != nullptr) {
      out_.layer.phys_per_live_sum +=
          Ratio(table_->physical_rows(), model_.live_groups());
      ++out_.layer.phys_per_live_days;
    }
    if (timed) AfterCommit();

    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "core.gc");
      auto gc = engine_->CollectGarbage();
      if (!Op(gc.status(), "garbage collection")) return false;
      if (tracer_ != nullptr) {
        out_.layer.gc_reclaimed += gc.value().tuples_reclaimed;
      }
    }
    maint += SecondsSince(t0);
    // With no session open, garbage collection leaves exactly one tuple
    // per live group.
    if (timed && !session_.has_value() &&
        table_->physical_rows() != model_.live_groups()) {
      Problem("after GC with no session open, physical rows != live groups");
    }

    const uint64_t writes0 = tracer_ ? disk_.stats().page_writes : 0;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "storage.checkpoint");
      pool_.FlushAll();
    }
    maint += SecondsSince(t0);
    if (tracer_ != nullptr) {
      out_.layer.checkpoint_writes += disk_.stats().page_writes - writes0;
    }
    ++out_.attempted;  // the checkpoint

    if (timed) {
      out_.maint_s += maint;
      out_.timed_events += batch.size();
      AfterCheckpoint();
      out_.day_reads_per_s.push_back(Ratio(day_reads_, day_read_s_));
      out_.day_maint_rate.push_back(Ratio(batch.size(), maint));
    }
    return true;
  }

  // --- Readers ---------------------------------------------------------------

  wvm::core::ReaderSession Open() { return engine_->OpenSession(); }
  void Close(const wvm::core::ReaderSession& s) { engine_->CloseSession(s); }

  GroupId RandomGroup(const Snapshot& snap) {
    std::uniform_int_distribution<size_t> pick(0, snap.ids.size() - 1);
    return snap.ids[pick(rng_)];
  }

  ReadSpec MakeRead(QueryType type, const Snapshot& snap) {
    ReadSpec r;
    r.type = type;
    if (type == kPoint || type == kSeries) r.target = RandomGroup(snap);
    if (type == kFilter) {
      r.date = DateOfDay(day_);
      r.min_total = 1000;
    }
    return r;
  }

  // Runs one read in `s`, times it, and checks it against the model.
  // Returns the result for callers that compare reads with each other.
  std::optional<wvm::query::QueryResult> Read(
      const wvm::core::ReaderSession& s, const ReadSpec& r) {
    const Snapshot* snap = model_.At(s.session_vn);
    const wvm::query::ParamMap params = ParamsOf(r);
    LayerProbe probe(this);
    wvm::core::SnapshotScanStats scan_stats;
    const Clock::time_point t0 = Clock::now();
    wvm::Status checked;
    wvm::Result<wvm::query::QueryResult> res = wvm::Status::Internal("not run");
    {
      ScopedSpan query(tracer_, "reader.query");
      {
        ScopedSpan span(tracer_, "core.check_session");
        checked = engine_->CheckSession(s);
      }
      if (checked.ok()) {
        ScopedSpan span(tracer_, kSelectSpans[r.type]);
        res = table_->SnapshotSelect(s, stmts_[r.type], params,
                                     tracer_ ? &scan_stats : nullptr);
      }
    }
    const double us = SecondsSince(t0) * 1e6;
    if (!Op(checked, "session check") ||
        !Op(res.status(), kTypeNames[r.type])) {
      return std::nullopt;
    }
    if (measuring_) {
      out_.read_us[r.type].push_back(us);
      out_.read_s += us / 1e6;
      day_read_s_ += us / 1e6;
      ++day_reads_;
    }
    probe.Finish(scan_stats);
    if (snap == nullptr) {
      Problem("no model snapshot for a session's version");
    } else {
      const std::string why = CheckRead(r, res.value(), *snap);
      if (!why.empty()) Problem(std::string(kTypeNames[r.type]) + ": " + why);
    }
    last_[r.type] = {r, res.value(), s.session_vn};
    if (tracer_ != nullptr) TraceCompanions(s, r);
    return std::move(res.value());
  }

  // Traced pass only: the same key through SnapshotLookup (the floor a
  // routed point read could reach) and the same GROUP BY over an
  // unversioned copy of the view (executor cost without 2VNL).
  void TraceCompanions(const wvm::core::ReaderSession& s, const ReadSpec& r) {
    if (r.type == kPoint) {
      const Row key = {Value::String(r.target.city),
                       Value::String(r.target.state),
                       Value::String(r.target.line), DateValue(r.target.date)};
      ScopedSpan span(tracer_, "core.lookup");
      auto got = table_->SnapshotLookup(s, key);
      if (!got.ok() || !got.value().has_value()) {
        Problem("SnapshotLookup missed a live key");
      }
    } else if (r.type == kGroup) {
      ScopedSpan span(tracer_, "query.plain_report");
      auto got = wvm::query::ExecuteSelect(stmts_[kGroup], *plain_, {});
      if (!got.ok()) Problem("plain GROUP BY failed");
    }
  }

  // Counter deltas around one select; the traced pass only.
  class LayerProbe {
   public:
    explicit LayerProbe(Run* run) : run_(run) {
      if (run_->tracer_ == nullptr) return;
      scan0_ = run_->engine_->scan_metrics();
      pool0_ = run_->pool_.stats();
    }
    void Finish(const wvm::core::SnapshotScanStats& st) {
      if (run_->tracer_ == nullptr || !run_->measuring_) return;
      const wvm::core::ScanMetrics scan = run_->engine_->scan_metrics();
      const wvm::BufferPoolStats pool = run_->pool_.stats();
      LayerCounters& l = run_->out_.layer;
      ++l.selects;
      l.routed += scan.scans_avoided - scan0_.scans_avoided;
      l.rows_scanned += scan.rows_scanned - scan0_.rows_scanned;
      l.rows_reconstructed +=
          scan.rows_reconstructed - scan0_.rows_reconstructed;
      l.bytes_copied += scan.bytes_copied - scan0_.bytes_copied;
      l.current_reads += st.current_reads;
      l.pre_update_reads += st.pre_update_reads;
      l.fetches += pool.fetches - pool0_.fetches;
      l.hits += pool.hits - pool0_.hits;
      l.misses += pool.misses - pool0_.misses;
    }

   private:
    Run* run_;
    wvm::core::ScanMetrics scan0_;
    wvm::BufferPoolStats pool0_;
  };

  void Reads(const wvm::core::ReaderSession& s,
             const std::vector<QueryType>& types) {
    const Snapshot* snap = model_.At(s.session_vn);
    if (snap == nullptr) return Problem("no model snapshot for a new session");
    for (QueryType t : types) Read(s, MakeRead(t, *snap));
  }

  void DashboardPhase() {
    for (int i = 0; i < spec_.sessions_per_phase; ++i) {
      const wvm::core::ReaderSession s = Open();
      std::vector<QueryType> types;
      for (int q = 0; q < spec_.queries_per_session; ++q) {
        types.push_back(q % 4 == 3 ? kSeries : kPoint);
      }
      Reads(s, types);
      Close(s);
    }
  }

  std::vector<QueryType> ReportSet() const {
    std::vector<QueryType> types;
    for (int q = 0; q < spec_.queries_per_session; ++q) {
      types.push_back(q % 3 == 1 ? kFilter : kGroup);
    }
    return types;
  }

  // report: every chunk is read by a session opened before it, so the
  // chunk's tuples resolve to their pre-update versions (Table 1); the
  // last chunk's session is also held across the commit. refresh: on one
  // day a session is held across the commit and through garbage
  // collection, which it holds back, and is closed before the next day.
  void BeforeChunk(int k, int chunks) {
    if (spec_.kind == Kind::kReport || (pinned_day_ && k == chunks - 1)) {
      session_ = Open();
    }
  }

  void AfterChunk(int k, int chunks) {
    switch (spec_.kind) {
      case Kind::kDashboard:
        DashboardPhase();
        break;
      case Kind::kReport: {
        const Snapshot* snap = model_.At(session_->session_vn);
        if (snap == nullptr) return Problem("no snapshot for a report");
        held_reads_.clear();
        held_results_.clear();
        for (QueryType t : ReportSet()) {
          held_reads_.push_back(MakeRead(t, *snap));
          held_results_.push_back(Read(*session_, held_reads_.back()));
        }
        if (k < chunks - 1) CloseHeld();
        break;
      }
      case Kind::kRefresh:
        RefreshPhase();
        if (session_.has_value()) {
          Reads(*session_,
                std::vector<QueryType>(spec_.queries_per_session, kPoint));
        }
        break;
    }
  }

  // Snapshot stability: the report session held across the commit returns
  // identical results before and after it. It is closed before garbage
  // collection, which then runs with no session open.
  void AfterCommit() {
    if (spec_.kind != Kind::kReport) return;
    for (size_t i = 0; i < held_reads_.size(); ++i) {
      auto again = Read(*session_, held_reads_[i]);
      if (!again.has_value() || !held_results_[i].has_value() ||
          again->rows != held_results_[i]->rows) {
        Problem("a session held across a commit saw its snapshot change");
      }
    }
    CloseHeld();
  }

  void AfterCheckpoint() {
    if (session_.has_value()) CloseHeld();
    switch (spec_.kind) {
      case Kind::kDashboard:
        DashboardPhase();
        break;
      case Kind::kReport: {
        const wvm::core::ReaderSession s = Open();
        Reads(s, {kGroup});
        Close(s);
        break;
      }
      case Kind::kRefresh:
        RefreshPhase();
        break;
    }
  }

  void RefreshPhase() {
    const wvm::core::ReaderSession s = Open();
    Reads(s, std::vector<QueryType>(spec_.queries_per_session, kPoint));
    Close(s);
  }

  void CloseHeld() {
    Close(*session_);
    session_.reset();
    held_reads_.clear();
    held_results_.clear();
  }

  // --- Traced pass extras ----------------------------------------------------

  void RebuildPlainCopy() {
    const Snapshot* snap = model_.At(engine_->current_vn());
    if (snap == nullptr) return;
    plain_.reset();
    plain_pool_.reset();
    plain_disk_ = std::make_unique<wvm::DiskManager>();
    plain_pool_ = std::make_unique<wvm::BufferPool>(spec_.pool_pages,
                                                    plain_disk_.get());
    plain_ = std::make_unique<wvm::Table>(
        "warehouse", gen_->view().view_schema(), plain_pool_.get());
    for (const GroupId& id : snap->ids) {
      const Agg& agg = snap->groups.at(KeyOf(id));
      const Row dims = {Value::String(id.city), Value::String(id.state),
                        Value::String(id.line), DateValue(id.date)};
      const Row row = gen_->view().MakeRow(dims, agg.sum, agg.support);
      if (!plain_->InsertRow(row).ok()) {
        return Problem("plain copy insert failed");
      }
    }
  }

  // Fixed probes after the last day, so every read type has samples on
  // every workload. They are not part of the workload's own counters.
  void Probes() {
    measuring_ = false;
    const wvm::core::ReaderSession s = Open();
    const Snapshot* snap = model_.At(s.session_vn);
    if (snap == nullptr) return Problem("no model snapshot for probes");
    for (int i = 0; i < 20; ++i) {
      for (QueryType t : {kPoint, kSeries}) {
        ScopedSpan span(tracer_, "probe");
        Read(s, MakeRead(t, *snap));
      }
    }
    for (int i = 0; i < 5; ++i) {
      for (QueryType t : {kGroup, kFilter}) {
        ScopedSpan span(tracer_, "probe");
        Read(s, MakeRead(t, *snap));
      }
    }
    Close(s);
    measuring_ = true;
  }

  // Perturbs the last result of each read type and confirms that the
  // check rejects it.
  void SelfTest() {
    for (int t = 0; t < kNumTypes; ++t) {
      if (!last_[t].has_value()) continue;
      const LastRead& last = *last_[t];
      const Snapshot* snap = model_.At(last.vn);
      if (snap == nullptr || last.result.rows.empty()) continue;
      wvm::query::QueryResult bad = last.result;
      Value& cell = bad.rows[0][ValueColumn(last.read.type)];
      cell = Value::Int64(AsInt(cell) + 1);
      ++out_.selftest_tried;
      if (!CheckRead(last.read, bad, *snap).empty()) ++out_.selftest_caught;
    }
    if (out_.selftest_tried == 0 ||
        out_.selftest_caught != out_.selftest_tried) {
      Problem("self-test: a perturbed read passed the check");
    }
  }

  static constexpr int kNumStatements = 4;

  struct LastRead {
    ReadSpec read;
    wvm::query::QueryResult result;
    int64_t vn;
  };

  const Spec& spec_;
  const uint64_t seed_;
  const int timed_days_;
  Tracer* const trace_target_;
  Tracer* tracer_ = nullptr;
  Outcome out_;

  wvm::DiskManager disk_;
  wvm::BufferPool pool_;
  std::unique_ptr<wvm::warehouse::DailySalesWorkload> gen_;
  std::unique_ptr<wvm::baselines::VnlAdapter> adapter_;
  wvm::core::VnlEngine* engine_ = nullptr;
  wvm::core::VnlTable* table_ = nullptr;
  wvm::sql::SelectStmt stmts_[kNumStatements];

  ViewModel model_;
  std::mt19937_64 rng_;
  int day_ = 0;
  double day_reads_ = 0;
  double day_read_s_ = 0;
  bool measuring_ = true;
  bool pinned_day_ = false;
  std::optional<wvm::core::ReaderSession> session_;
  std::vector<ReadSpec> held_reads_;
  std::vector<std::optional<wvm::query::QueryResult>> held_results_;
  std::unordered_set<std::string> carried_deletes_;
  std::optional<LastRead> last_[kNumTypes];

  std::unique_ptr<wvm::DiskManager> plain_disk_;
  std::unique_ptr<wvm::BufferPool> plain_pool_;
  std::unique_ptr<wvm::Table> plain_;
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const Outcome& o, const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"correct\": " << (o.correct ? "true" : "false")
    << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  s << "}}";
  return s.str();
}

std::vector<Metric> EndToEnd(const Outcome& o) {
  return {
      {"setup_s", o.setup_s, "s"},
      {"read_p50_us", o.ReadP50(), "us"},
      {"reads_per_s", o.ReadsPerSecond(), "queries/s"},
      {"maint_events_per_s", o.MaintRate(), "events/s"},
      {"disk_pages_per_day", Ratio(o.disk_pages, o.timed_days), "pages"},
      {"storage_bytes_per_row",
       Ratio(static_cast<double>(o.heap_pages) * wvm::kPageSize, o.live_rows),
       "bytes"},
  };
}

std::vector<Metric> PerLayer(const Outcome& traced, const Tracer& tracer) {
  const LayerCounters& l = traced.layer;
  // Median span duration of `name`. Read spans include the end-of-run
  // probes, so every read type has samples on every workload.
  auto med = [&](const char* name, double scale) {
    std::vector<double> d = tracer.Durations(name);
    return Median(d) / scale;
  };
  auto mean = [&](const char* name, double scale) {
    return Mean(tracer.Durations(name)) / scale;
  };
  const double days = traced.timed_days;
  const double sel = static_cast<double>(l.selects);
  return {
      {"core.point_select_us", med("core.select.point", 1e3), "us"},
      {"core.series_select_us", med("core.select.series", 1e3), "us"},
      {"core.lookup_us", med("core.lookup", 1e3), "us"},
      {"core.check_session_ns", med("core.check_session", 1.0), "ns"},
      {"core.index_served_share", Ratio(l.routed, sel), "share"},
      {"core.report_select_ms", med("core.select.report_group", 1e6), "ms"},
      {"core.filter_select_ms", med("core.select.report_filter", 1e6), "ms"},
      {"core.rows_scanned_per_query", Ratio(l.rows_scanned, sel), "rows"},
      {"core.rows_reconstructed_per_query", Ratio(l.rows_reconstructed, sel),
       "rows"},
      {"core.bytes_copied_per_query", Ratio(l.bytes_copied, sel), "bytes"},
      {"core.pre_update_share",
       Ratio(l.pre_update_reads, l.current_reads + l.pre_update_reads),
       "share"},
      {"query.plain_report_ms", med("query.plain_report", 1e6), "ms"},
      {"storage.fetches_per_query", Ratio(l.fetches, sel), "pages"},
      {"storage.misses_per_query", Ratio(l.misses, sel), "pages"},
      {"storage.hit_rate", Ratio(l.hits, l.fetches), "share"},
      {"storage.evictions_per_day", Ratio(l.evictions, days), "pages"},
      {"warehouse.apply_chunk_ms", mean("warehouse.apply_chunk", 1e6), "ms"},
      {"warehouse.keys_per_event", Ratio(l.keys, l.events), "keys/event"},
      {"warehouse.index_probes_per_key",
       Ratio(l.index_probes, l.groups_touched), "probes/key"},
      {"warehouse.page_pins_per_key",
       Ratio(l.page_pins, l.groups_touched),
       "pins/key"},
      {"baselines.commit_ms", mean("baselines.commit", 1e6), "ms"},
      {"core.gc_ms", mean("core.gc", 1e6), "ms"},
      {"core.gc_tuples_reclaimed", Ratio(l.gc_reclaimed, days), "tuples"},
      {"storage.checkpoint_ms", mean("storage.checkpoint", 1e6), "ms"},
      {"storage.dirty_pages_per_day", Ratio(l.checkpoint_writes, days),
       "pages"},
      {"catalog.heap_pages", static_cast<double>(traced.heap_pages), "pages"},
      {"catalog.physical_rows_per_live_row",
       Ratio(l.phys_per_live_sum, l.phys_per_live_days),
       "rows/row"},
      {"sql.parse_us", Mean(traced.parse_us), "us"},
  };
}

void PrintDiagnostics(const Outcome& o, double steal_s, const char* pass) {
  using ull = unsigned long long;
  std::printf(
      "# %s: timed_days=%d events=%llu rows=%llu heap_pages=%llu "
      "revives=%llu deletes=%llu\n",
      pass, o.timed_days, ull{o.timed_events}, ull{o.live_rows},
      ull{o.heap_pages}, ull{o.revives}, ull{o.deletes});
  std::printf(
      "# %s: read_s=%.4f maint_s=%.4f setup_s=%.4f attempted=%llu "
      "failed=%llu selftest=%d/%d\n",
      pass, o.read_s, o.maint_s, o.setup_s, ull{o.attempted}, ull{o.failed},
      o.selftest_caught, o.selftest_tried);
  for (int t = 0; t < kNumTypes; ++t) {
    const std::vector<double>& v = o.read_us[t];
    if (v.empty()) continue;
    std::printf(
        "# %s: %-14s n=%zu p50_us=%.2f p90=%.1f p95=%.1f p99_us=%.2f "
        "max=%.1f\n",
        pass, kTypeNames[t], v.size(), Median(v), Quantile(v, 0.9),
        Quantile(v, 0.95), Quantile(v, 0.99), Quantile(v, 1.0));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "# %s: calibration_ms before=%.2f after=%.2f steal_s=%.2f "
      "peak_rss_mb=%.1f\n",
      pass, o.calib_before_ms, o.calib_after_ms, steal_s,
      usage.ru_maxrss / 1024.0);
  for (const std::string& p : o.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Spec* spec = FindSpec(workload);
  if (spec == nullptr || seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: warehouse_day --workload dashboard|report|refresh "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  const double steal0 = StealSeconds();
  Tracer tracer;
  const Outcome o = Run(*spec, seed, seconds, trace ? &tracer : nullptr)
                        .Execute(kProcessStart);
  PrintDiagnostics(o, StealSeconds() - steal0, trace ? "traced" : "run");
  std::vector<Metric> metrics = EndToEnd(o);
  if (trace) {
    // The traced pass also reports its own end-to-end figures; run.py
    // compares them with an untraced process to give the tracing overhead.
    tracer.Dump(stdout);
    const std::vector<Metric> layers = PerLayer(o, tracer);
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }
  std::printf("%s\n", Json(o, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
