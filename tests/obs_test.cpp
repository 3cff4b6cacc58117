// Tests for the observability layer: JSON round-tripping, histogram
// percentile math, logger level filtering, trace-file well-formedness,
// and the disabled-mode guarantee that timers record nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace {

using paragraph::obs::JsonValue;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

// The obs singletons are process-wide; every test starts from a clean,
// disabled state and leaves it that way.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { clean(); }
  void TearDown() override { clean(); }

  static void clean() {
    paragraph::obs::set_enabled(false);
    paragraph::obs::TraceCollector::instance().set_enabled(false);
    paragraph::obs::TraceCollector::instance().reset();
    paragraph::obs::MetricsRegistry::instance().reset();
    paragraph::obs::Logger::instance().close_jsonl();
    paragraph::obs::Logger::instance().set_level(paragraph::obs::LogLevel::kInfo);
    paragraph::obs::Logger::instance().set_text_stream(stderr);
  }
};

TEST_F(ObsTest, JsonRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("int", 42);
  doc.set("neg", -7);
  doc.set("dbl", 2.5);
  doc.set("str", "hello \"world\"\n");
  doc.set("yes", true);
  doc.set("nil", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back(2.25);
  arr.push_back("three");
  doc.set("arr", std::move(arr));
  JsonValue inner = JsonValue::object();
  inner.set("k", "v");
  doc.set("obj", std::move(inner));

  const std::string text = doc.dump();
  std::string error;
  const auto parsed = JsonValue::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->at("int").as_int(), 42);
  EXPECT_EQ(parsed->at("neg").as_int(), -7);
  EXPECT_DOUBLE_EQ(parsed->at("dbl").as_double(), 2.5);
  EXPECT_EQ(parsed->at("str").as_string(), "hello \"world\"\n");
  EXPECT_TRUE(parsed->at("yes").as_bool());
  EXPECT_TRUE(parsed->at("nil").is_null());
  ASSERT_EQ(parsed->at("arr").size(), 3u);
  EXPECT_EQ(parsed->at("arr")[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed->at("arr")[1].as_double(), 2.25);
  EXPECT_EQ(parsed->at("arr")[2].as_string(), "three");
  EXPECT_EQ(parsed->at("obj").at("k").as_string(), "v");
  // Insertion order is preserved through dump/parse.
  EXPECT_EQ(parsed->items().front().first, "int");
}

// A repeated key keeps its first position and takes the last value,
// through `set` and through `parse`, on both sides of the size from which
// an object indexes its members (16).
TEST_F(ObsTest, JsonSetOverwritesInPlace) {
  for (const int n : {2, 15, 16, 40}) {
    SCOPED_TRACE(n);
    // The same members through `set` and as text: keys "0" .. "n-1",
    // then "1", "0" and "1" again.
    JsonValue doc = JsonValue::object();
    std::string text = "{";
    const auto add = [&](int key, int value) {
      doc.set(std::to_string(key), value);
      text += '"' + std::to_string(key) + "\":" + std::to_string(value) + ',';
    };
    for (int i = 0; i < n; ++i) add(i, i);
    add(1, 100);
    add(0, 101);
    add(1, 102);
    text.back() = '}';
    std::string error;
    const auto parsed = JsonValue::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    for (const JsonValue* v : {&std::as_const(doc), &*parsed}) {
      ASSERT_EQ(v->size(), static_cast<std::size_t>(n));
      EXPECT_EQ(v->items()[0].first, "0");
      EXPECT_EQ(v->items()[1].first, "1");
      EXPECT_EQ(v->items().back().first, std::to_string(n - 1));
      EXPECT_EQ(v->at("0").as_int(), 101);
      EXPECT_EQ(v->at("1").as_int(), 102);
    }
    EXPECT_EQ(parsed->dump(), doc.dump());
  }
}

// Every member of an indexed object is found, in the original and in its
// copies and moves; absent keys are not.
TEST_F(ObsTest, JsonFindReachesEveryMember) {
  JsonValue doc = JsonValue::object();
  constexpr int kMembers = 1000;
  for (int i = 0; i < kMembers; ++i) doc.set("net_" + std::to_string(i), i);
  const auto expect_all = [](const JsonValue& v) {
    ASSERT_EQ(v.size(), static_cast<std::size_t>(kMembers));
    for (int i = 0; i < kMembers; ++i) {
      const JsonValue* m = v.find("net_" + std::to_string(i));
      ASSERT_NE(m, nullptr) << i;
      EXPECT_EQ(m->as_int(), i);
    }
    EXPECT_EQ(v.find("net_"), nullptr);
    EXPECT_EQ(v.find("net_" + std::to_string(kMembers)), nullptr);
  };
  expect_all(doc);
  JsonValue copy = doc;
  expect_all(copy);
  JsonValue assigned = JsonValue::object();
  assigned = copy;
  expect_all(assigned);
  const JsonValue moved = std::move(copy);
  expect_all(moved);
  JsonValue move_assigned;
  move_assigned = std::move(assigned);
  expect_all(move_assigned);
  // A copy is independent of its source.
  doc.set("net_0", -1);
  doc.set("extra", 0);
  EXPECT_EQ(moved.at("net_0").as_int(), 0);
  EXPECT_EQ(moved.find("extra"), nullptr);
  EXPECT_EQ(doc.at("net_0").as_int(), -1);
  EXPECT_EQ(doc.items().front().first, "net_0");
}

// Building and parsing are linear in the member count: 200k keys take
// about 0.4 s in Release and minutes with a linear key scan per member.
// Unoptimised and sanitizer builds take up to 5 s (TSan).
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_THREAD__)
constexpr double kWideObjectBoundS = 2.0;
#else
constexpr double kWideObjectBoundS = 30.0;
#endif

TEST_F(ObsTest, JsonWideObjectBuildsAndParsesInLinearTime) {
  constexpr int kMembers = 200000;
  const auto t0 = std::chrono::steady_clock::now();
  JsonValue doc = JsonValue::object();
  for (int i = 0; i < kMembers; ++i) doc.set("net_" + std::to_string(i), 0.5 * i);
  const std::string text = doc.dump();
  std::string error;
  const auto parsed = JsonValue::parse(text, &error);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), static_cast<std::size_t>(kMembers));
  EXPECT_DOUBLE_EQ(parsed->at("net_199999").as_double(), 0.5 * 199999);
  EXPECT_LT(s, kWideObjectBoundS);
}

TEST_F(ObsTest, JsonParseRejectsMalformed) {
  for (const char* bad : {"", "{", "[1, 2", "{\"a\":}", "{\"a\":1,}", "[1,]",
                          "{\"a\":1} trailing", "nul", "\"unterminated", "01", "+1",
                          "{\"a\" 1}", "{1: 2}"}) {
    std::string error;
    EXPECT_FALSE(JsonValue::parse(bad, &error).has_value()) << "input: " << bad;
    EXPECT_FALSE(error.empty()) << "input: " << bad;
  }
}

TEST_F(ObsTest, JsonParseAcceptsUnicodeEscapes) {
  const auto parsed = JsonValue::parse("\"a\\u00e9b\\u0041\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\xc3\xa9" "bA");
}

TEST_F(ObsTest, JsonAsIntSaturatesOutOfRangeDoubles) {
  // Numbers come straight off the wire ({"id": 1e300}), and an
  // out-of-range double->int64 cast is UB: as_int() saturates instead.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(JsonValue(1e300).as_int(), kMax);
  EXPECT_EQ(JsonValue(-1e300).as_int(), kMin);
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).as_int(), kMax);
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).as_int(), kMin);
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).as_int(), 0);
  EXPECT_EQ(JsonValue(9.3e18).as_int(), kMax);   // just past int64 max
  EXPECT_EQ(JsonValue(-9.3e18).as_int(), kMin);  // just past int64 min
  EXPECT_EQ(JsonValue(1.75).as_int(), 1);        // in-range doubles truncate as before
  EXPECT_EQ(JsonValue::parse("1e300")->as_int(), kMax);
}

TEST_F(ObsTest, JsonNonFiniteDumpsAsNull) {
  JsonValue doc = JsonValue::object();
  doc.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc.dump(), "{\"inf\":null}");
}

TEST_F(ObsTest, HistogramPercentiles) {
  auto& h = paragraph::obs::MetricsRegistry::instance().histogram("test.h");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const auto s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  // util::percentile linear interpolation over sorted samples.
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.p95, 95.05);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
  EXPECT_FALSE(s.samples_capped);
}

TEST_F(ObsTest, HistogramEmptyAndReset) {
  auto& h = paragraph::obs::MetricsRegistry::instance().histogram("test.h2");
  EXPECT_EQ(h.summary().count, 0u);
  h.record(3.0);
  EXPECT_EQ(h.count(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.summary().sum, 0.0);
}

TEST_F(ObsTest, CounterAndGauge) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  auto& c = reg.counter("test.c");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  // counter() returns the same instrument for the same name.
  EXPECT_EQ(&reg.counter("test.c"), &c);
  auto& g = reg.gauge("test.g");
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST_F(ObsTest, MetricsJsonExport) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  reg.counter("c1").add(5);
  reg.gauge("g1").set(0.25);
  reg.histogram("h1").record(2.0);
  reg.histogram("h1").record(4.0);
  reg.counter("untouched");  // zero activity: skipped in the dump
  JsonValue rec = JsonValue::object();
  rec.set("epoch", 0);
  rec.set("loss", 1.5);
  reg.append_record("train.epochs", std::move(rec));

  const JsonValue doc = reg.to_json();
  EXPECT_EQ(doc.at("counters").at("c1").as_int(), 5);
  EXPECT_EQ(doc.at("counters").find("untouched"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g1").as_double(), 0.25);
  const JsonValue& h = doc.at("histograms").at("h1");
  EXPECT_EQ(h.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(h.at("mean").as_double(), 3.0);
  ASSERT_NE(h.find("p50"), nullptr);
  ASSERT_NE(h.find("p95"), nullptr);
  ASSERT_NE(h.find("p99"), nullptr);
  const JsonValue& series = doc.at("series").at("train.epochs");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].at("loss").as_double(), 1.5);

  // The export is valid JSON end to end.
  std::string error;
  ASSERT_TRUE(JsonValue::parse(doc.dump(), &error).has_value()) << error;
}

TEST_F(ObsTest, LogLevelParsingAndNames) {
  using paragraph::obs::LogLevel;
  using paragraph::obs::parse_log_level;
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_STREQ(paragraph::obs::log_level_name(LogLevel::kError), "error");
}

TEST_F(ObsTest, LoggerLevelFiltersJsonlSink) {
  auto& logger = paragraph::obs::Logger::instance();
  logger.set_text_stream(nullptr);  // keep test output clean
  const auto path = temp_path("paragraph_obs_test_log.jsonl");
  ASSERT_TRUE(logger.open_jsonl(path.string()));
  logger.set_level(paragraph::obs::LogLevel::kWarn);

  paragraph::obs::log_debug("t", "dropped debug");
  paragraph::obs::log_info("t", "dropped info");
  paragraph::obs::log_warn("t", "kept warn", {{"code", 7}});
  paragraph::obs::log_error("t", "kept error");
  logger.close_jsonl();

  std::istringstream lines(read_file(path));
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    auto rec = JsonValue::parse(line, &error);
    ASSERT_TRUE(rec.has_value()) << error << " in line: " << line;
    records.push_back(std::move(*rec));
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("level").as_string(), "warn");
  EXPECT_EQ(records[0].at("message").as_string(), "kept warn");
  EXPECT_EQ(records[0].at("component").as_string(), "t");
  EXPECT_EQ(records[0].at("code").as_int(), 7);
  EXPECT_TRUE(records[0].find("ts_ms") != nullptr);
  EXPECT_EQ(records[1].at("level").as_string(), "error");
  std::filesystem::remove(path);
}

TEST_F(ObsTest, DisabledTimersRecordNothing) {
  ASSERT_FALSE(paragraph::obs::enabled());
  {
    PARAGRAPH_TIMED_SCOPE("outer");
    PARAGRAPH_TIMED_SCOPE("inner");
  }
  EXPECT_EQ(paragraph::obs::MetricsRegistry::instance().histogram("time/outer").count(), 0u);
  EXPECT_EQ(paragraph::obs::TraceCollector::instance().size(), 0u);
}

TEST_F(ObsTest, NestedScopesBuildPhasePaths) {
  paragraph::obs::set_enabled(true);
  {
    PARAGRAPH_TIMED_SCOPE("train");
    {
      PARAGRAPH_TIMED_SCOPE("epoch");
      { PARAGRAPH_TIMED_SCOPE("forward"); }
      { PARAGRAPH_TIMED_SCOPE("forward"); }
    }
  }
  const JsonValue profile =
      paragraph::obs::profile_json(paragraph::obs::MetricsRegistry::instance().snapshot());
  ASSERT_NE(profile.find("train"), nullptr);
  ASSERT_NE(profile.find("train/epoch"), nullptr);
  ASSERT_NE(profile.find("train/epoch/forward"), nullptr);
  EXPECT_EQ(profile.at("train/epoch/forward").at("count").as_int(), 2);
  EXPECT_GE(profile.at("train").at("total_ms").as_double(),
            profile.at("train/epoch").at("total_ms").as_double());
  // Phase times land in metrics histograms under a "time/" prefix.
  EXPECT_EQ(
      paragraph::obs::MetricsRegistry::instance().histogram("time/train/epoch/forward").count(),
      2u);
}

TEST_F(ObsTest, TraceFileIsWellFormed) {
  paragraph::obs::set_enabled(true);
  auto& tracer = paragraph::obs::TraceCollector::instance();
  tracer.set_enabled(true);
  {
    PARAGRAPH_TIMED_SCOPE("phase_a");
    { PARAGRAPH_TIMED_SCOPE("phase_b"); }
  }
  tracer.add_instant("marker", "test");
  ASSERT_EQ(tracer.size(), 3u);

  const auto path = temp_path("paragraph_obs_test_trace.json");
  ASSERT_TRUE(tracer.write_json(path.string()));
  std::string error;
  const auto doc = JsonValue::parse(read_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 3u);
  bool saw_b = false;
  for (const JsonValue& e : events.elements()) {
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i");
    if (ph == "X") EXPECT_GE(e.at("dur").as_int(), 0);
    if (e.at("name").as_string() == "phase_b") saw_b = true;
  }
  EXPECT_TRUE(saw_b);
  std::filesystem::remove(path);
}

TEST_F(ObsTest, TraceCapacityDropsAndCounts) {
  auto& tracer = paragraph::obs::TraceCollector::instance();
  tracer.set_enabled(true);
  tracer.set_capacity(2);
  for (int i = 0; i < 5; ++i) tracer.add_instant("e", "test");
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  const JsonValue doc = tracer.to_json();
  ASSERT_NE(doc.find("metadata"), nullptr);
  EXPECT_EQ(doc.at("metadata").at("dropped_events").as_int(), 3);
  tracer.reset();
  tracer.set_capacity(1 << 20);
}

TEST_F(ObsTest, HistogramQuantileEdgeCases) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();

  // Empty: everything zero, nothing capped.
  const auto empty = reg.histogram("test.q.empty").summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
  EXPECT_FALSE(empty.samples_capped);

  // Single sample: every quantile is that sample.
  auto& one = reg.histogram("test.q.one");
  one.record(7.25);
  const auto s1 = one.summary();
  EXPECT_EQ(s1.count, 1u);
  EXPECT_DOUBLE_EQ(s1.p50, 7.25);
  EXPECT_DOUBLE_EQ(s1.p95, 7.25);
  EXPECT_DOUBLE_EQ(s1.p99, 7.25);
  EXPECT_DOUBLE_EQ(s1.min, 7.25);
  EXPECT_DOUBLE_EQ(s1.max, 7.25);

  // Saturated: past the sample cap the count/sum/min/max stay exact
  // while quantiles cover the most recent cap samples, flagged
  // samples_capped.
  auto& sat = reg.histogram("test.q.sat");
  const std::size_t cap = 1u << 20;  // Histogram::kMaxSamples
  for (std::size_t i = 0; i < cap; ++i) sat.record(1.0);
  sat.record(1000.0);
  const auto s2 = sat.summary();
  EXPECT_EQ(s2.count, cap + 1);
  EXPECT_TRUE(s2.samples_capped);
  EXPECT_DOUBLE_EQ(s2.max, 1000.0);         // tracked exactly
  EXPECT_DOUBLE_EQ(s2.p99, 1.0);            // one outlier in cap samples
  EXPECT_DOUBLE_EQ(s2.sum, cap + 1000.0);
}

// Past the cap the sample buffer is a ring: quantiles cover the most
// recent cap samples.
TEST_F(ObsTest, HistogramQuantilesFollowRecentSamples) {
  auto& h = paragraph::obs::MetricsRegistry::instance().histogram("test.q.ring");
  const std::size_t cap = 1u << 20;  // Histogram::kMaxSamples
  for (std::size_t i = 0; i < cap; ++i) h.record(1.0);
  for (std::size_t i = 0; i < cap; ++i) h.record(1000.0);
  const auto s = h.summary();
  EXPECT_EQ(s.count, 2 * cap);
  EXPECT_TRUE(s.samples_capped);
  EXPECT_DOUBLE_EQ(s.p50, 1000.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.sum, cap * 1001.0);
}

TEST_F(ObsTest, MetricsSnapshotMatchesToJson) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  reg.counter("test.snap.hits").add(5);
  reg.counter("test.snap.idle");  // zero: elided from JSON, kept in snapshot
  reg.gauge("test.snap.level").set(2.5);
  auto& h = reg.histogram("test.snap.lat");
  h.record(1.0);
  h.record(3.0);

  const auto snap = reg.snapshot();
  bool saw_hits = false, saw_idle = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.snap.hits") saw_hits = v == 5;
    if (name == "test.snap.idle") saw_idle = v == 0;
  }
  EXPECT_TRUE(saw_hits);
  EXPECT_TRUE(saw_idle);
  const auto* lat = snap.histogram("test.snap.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_DOUBLE_EQ(lat->mean, 2.0);
  EXPECT_EQ(snap.histogram("test.snap.nope"), nullptr);

  // The JSON projection agrees and applies the idle filtering the
  // registry's own to_json promises.
  const JsonValue doc = snap.to_json();
  EXPECT_EQ(doc.at("counters").at("test.snap.hits").as_int(), 5);
  EXPECT_EQ(doc.at("counters").find("test.snap.idle"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("test.snap.level").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("test.snap.lat").at("p50").as_double(), 2.0);
}

// The stats admin verb snapshots the registry while serve threads keep
// writing; the snapshot must stay coherent (and TSan-clean) against
// concurrent recording AND concurrent instrument registration.
TEST_F(ObsTest, MetricsSnapshotUnderConcurrentWriters) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  auto& shared = reg.counter("test.conc.shared");
  std::atomic<bool> done{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto& h = reg.histogram("test.conc.h" + std::to_string(w));
      int churn = 0;
      while (!done.load()) {
        shared.add(1);
        h.record(1.0);
        // Registration churn: new instruments appear mid-snapshot.
        reg.counter("test.conc.churn" + std::to_string(w) + "." + std::to_string(churn++ % 16))
            .add(1);
      }
    });
  }

  std::uint64_t prev_shared = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = reg.snapshot();
    std::uint64_t shared_now = 0;
    for (const auto& [name, v] : snap.counters)
      if (name == "test.conc.shared") shared_now = v;
    // Monotone across snapshots: a snapshot never loses recorded work.
    EXPECT_GE(shared_now, prev_shared);
    prev_shared = shared_now;
    for (const auto& [name, s] : snap.histograms)
      if (s.count != 0) EXPECT_GE(s.sum, s.min);
    // The JSON projection of a live snapshot must always be dumpable.
    EXPECT_FALSE(snap.to_json().dump().empty());
  }
  done.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GE(shared.value(), prev_shared);
  EXPECT_GE(reg.snapshot().counters.size(), 1u + kWriters);
}

// A snapshot summarises histograms outside the registry lock: an
// instrument lookup on another thread (the serve worker, while `stats`
// runs on the I/O loop) is not held for the length of the summaries,
// each of which selects quantiles over a full sample ring.
TEST_F(ObsTest, SnapshotDoesNotHoldLookupsDuringSummaries) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  const std::size_t cap = 1u << 20;  // Histogram::kMaxSamples
  for (int h = 0; h < 3; ++h) {
    auto& hist = reg.histogram("test.lock.h" + std::to_string(h));
    for (std::size_t i = 0; i < cap; ++i) hist.record(static_cast<double>(i % 1000));
  }
  using Ms = std::chrono::duration<double, std::milli>;
  std::atomic<bool> done{false};
  double snapshot_ms = 0.0;
  std::thread reader([&] {
    const auto t0 = std::chrono::steady_clock::now();
    const auto snap = reg.snapshot();
    snapshot_ms = Ms(std::chrono::steady_clock::now() - t0).count();
    EXPECT_EQ(snap.histogram("test.lock.h0")->count, cap);
    done.store(true);
  });
  double worst_ms = 0.0;
  while (!done.load()) {
    const auto t0 = std::chrono::steady_clock::now();
    reg.counter("test.lock.lookup").add();
    worst_ms = std::max(worst_ms, Ms(std::chrono::steady_clock::now() - t0).count());
  }
  reader.join();
  EXPECT_LT(worst_ms, snapshot_ms / 2) << "snapshot took " << snapshot_ms << " ms";
}

TEST_F(ObsTest, RegistryResetKeepsReferencesValid) {
  auto& reg = paragraph::obs::MetricsRegistry::instance();
  auto& c = reg.counter("test.stable");
  c.add(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // cached reference still usable after reset
  EXPECT_EQ(reg.counter("test.stable").value(), 1u);
}

}  // namespace
