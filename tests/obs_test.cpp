#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace ppg::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(7.0);  // set overwrites accumulated value
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Gauge, SetMaxKeepsTheRunningMaximum) {
  Gauge g;
  g.set_max(3.0);
  g.set_max(2.0);  // smaller: no effect
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Histogram, ExactMomentsAndBucketedQuantiles) {
  Histogram h;
  EXPECT_EQ(h.summary().count, 0u);
  for (int v = 1; v <= 100; ++v) h.observe(double(v));
  const auto s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Median 50 lies in the (32, 64] bucket: the estimate is its upper bound.
  EXPECT_GE(s.p50, 50.0);
  EXPECT_LE(s.p50, 64.0);
  // p95 = 95 lies in the (64, 128] bucket, clamped to the observed max.
  EXPECT_GE(s.p95, 95.0);
  EXPECT_LE(s.p95, 100.0);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Histogram, SubUnitAndHugeValuesLandInRange) {
  Histogram h;
  h.observe(0.0);       // non-positive → first bucket
  h.observe(1e-9);      // below the sub-unit range → first bucket
  h.observe(1e300);     // beyond the top bound → last bucket
  const auto s = h.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max, 1e300);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // Distinct kinds with the same name coexist (separate namespaces).
  Gauge& g = r.gauge("x");
  g.set(3.0);
  EXPECT_EQ(a.value(), 1u);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(Registry, ConcurrentUpdatesAreExact) {
  Registry r;
  Counter& c = r.counter("hammered");
  Histogram& h = r.histogram("hammered_h");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 5000;
  ThreadPool pool(8);
  std::vector<std::future<void>> futs;
  futs.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futs.push_back(pool.submit([&c, &h] {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        c.inc();
        h.observe(1.0);
      }
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  const auto s = h.summary();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(s.sum, double(kTasks * kPerTask));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  Registry r;
  ThreadPool pool(8);
  std::vector<std::future<Counter*>> futs;
  for (int t = 0; t < 32; ++t)
    futs.push_back(pool.submit([&r] { return &r.counter("same-name"); }));
  Counter* first = futs[0].get();
  for (std::size_t t = 1; t < futs.size(); ++t)
    EXPECT_EQ(futs[t].get(), first);
}

TEST(Registry, JsonExportIsValidAndComplete) {
  Registry r;
  r.counter("a.count").inc(5);
  r.gauge("b.gauge").set(2.25);
  r.histogram("c.hist").observe(10.0);
  const std::string json = r.to_json();
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"a.count\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"b.gauge\":2.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
}

TEST(Registry, TextExportListsEveryMetric) {
  Registry r;
  r.counter("t.count").inc(3);
  r.gauge("t.gauge").set(1.5);
  r.histogram("t.hist").observe(2.0);
  const std::string text = r.to_text();
  EXPECT_NE(text.find("counter t.count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge t.gauge 1.5"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram t.hist"), std::string::npos) << text;
}

TEST(Json, WriterProducesValidatableDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("quote \" backslash \\ newline \n tab \t");
  w.key("n").value(-1.5e-3);
  w.key("u").value(std::uint64_t{18446744073709551615ull});
  w.key("b").value(true);
  w.key("nul").null();
  w.key("arr").begin_array().value(std::uint64_t{1}).value(false).end_array();
  w.key("obj").begin_object().end_object();
  w.end_object();
  std::string error;
  EXPECT_TRUE(validate_json(w.str(), &error)) << error << "\n" << w.str();
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(validate_json("{}"));
  EXPECT_TRUE(validate_json("  [1, 2.5, -3e2, \"x\", {\"k\":null}] "));
  EXPECT_TRUE(validate_json("\"\\u00e9\\n\""));
  EXPECT_FALSE(validate_json(""));
  EXPECT_FALSE(validate_json("{"));
  EXPECT_FALSE(validate_json("[1,2"));
  EXPECT_FALSE(validate_json("{\"k\":}"));
  EXPECT_FALSE(validate_json("{} trailing"));
  EXPECT_FALSE(validate_json("{'k':1}"));
  EXPECT_FALSE(validate_json("nul"));
  EXPECT_FALSE(validate_json("\"unterminated"));
  // A high surrogate needs a low one after it.
  EXPECT_TRUE(validate_json("\"\\ud83d\\ude00\""));
  EXPECT_FALSE(validate_json("\"\\ud800\""));
  EXPECT_FALSE(validate_json("\"\\ud800\\u0041\""));
}

TEST(JsonParse, ParsesScalarsAndContainers) {
  auto v = parse_json(R"({"a":1.5,"b":"hi","c":true,"d":null,)"
                      R"("e":[1,2,3],"f":{"g":-2e2}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->get_number("a"), 1.5);
  EXPECT_EQ(v->get_string("b"), "hi");
  EXPECT_EQ(v->get_bool("c"), true);
  ASSERT_NE(v->find("d"), nullptr);
  EXPECT_TRUE(v->find("d")->is_null());
  ASSERT_NE(v->find("e"), nullptr);
  ASSERT_EQ(v->find("e")->array.size(), 3u);
  EXPECT_EQ(v->find("e")->array[2].number, 3.0);
  ASSERT_NE(v->find("f"), nullptr);
  EXPECT_EQ(v->find("f")->get_number("g"), -200.0);
}

TEST(JsonParse, DecodesEscapesAndUnicode) {
  auto v = parse_json(R"("q\" b\\ s\/ n\n t\t ué pair😀")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string,
            "q\" b\\ s/ n\n t\t u\xc3\xa9 pair\xf0\x9f\x98\x80");
}

TEST(JsonParse, TypedAccessorsDistinguishAbsentFromMistyped) {
  const auto v = parse_json(R"({"n":"not a number","s":5})");
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->get_number("n").has_value());   // mistyped
  EXPECT_NE(v->find("n"), nullptr);               // ...but present
  EXPECT_FALSE(v->get_string("s").has_value());
  EXPECT_FALSE(v->get_number("missing").has_value());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  const auto v = parse_json(R"({"k":1,"k":2})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_number("k"), 2.0);
}

TEST(JsonParse, RejectsWhatTheValidatorRejects) {
  for (const char* bad :
       {"", "{", "[1,2", "{\"k\":}", "{} trailing", "{'k':1}", "nul",
        "\"unterminated", "\"bad \\u12 escape\"", "+1"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(validate_json(bad)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("quote \" backslash \\ newline \n");
  w.key("arr").begin_array().value(std::int64_t{-7}).null().end_array();
  w.end_object();
  std::string error;
  const auto v = parse_json(w.str(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->get_string("s"), "quote \" backslash \\ newline \n");
  ASSERT_NE(v->find("arr"), nullptr);
  ASSERT_EQ(v->find("arr")->array.size(), 2u);
  EXPECT_EQ(v->find("arr")->array[0].number, -7.0);
  EXPECT_TRUE(v->find("arr")->array[1].is_null());
}

TEST(Timing, ScopedLatencyRespectsToggle) {
  const bool saved = timing_enabled();
  Histogram h;
  set_timing_enabled(false);
  { ScopedLatency probe(h); }
  EXPECT_EQ(h.count(), 0u);
  set_timing_enabled(true);
  { ScopedLatency probe(h); }
  EXPECT_EQ(h.count(), 1u);
  set_timing_enabled(saved);
}

TEST(Trace, SpanNestingOrderAndContainment) {
  const auto path = std::filesystem::temp_directory_path() /
                    "ppg_obs_trace_test.json";
  ASSERT_TRUE(trace_start(path.string()));
  {
    Span outer("outer-span", "test");
    {
      Span inner("inner-span", "test");
      trace_instant("instant-mark", "test");
    }
  }
  trace_stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string error;
  EXPECT_TRUE(validate_json(text, &error)) << error << "\n" << text;

  // Complete events are written at span end, so the inner span's record
  // precedes the outer one in the file.
  const auto inner_pos = text.find("\"name\":\"inner-span\"");
  const auto outer_pos = text.find("\"name\":\"outer-span\"");
  ASSERT_NE(inner_pos, std::string::npos) << text;
  ASSERT_NE(outer_pos, std::string::npos) << text;
  EXPECT_LT(inner_pos, outer_pos);
  EXPECT_NE(text.find("\"name\":\"instant-mark\""), std::string::npos);

  // The inner interval is contained in the outer interval.
  const auto read_event = [&text](std::size_t pos) {
    long long ts = -1, dur = -1;
    const auto ts_pos = text.find("\"ts\":", pos);
    const auto dur_pos = text.find("\"dur\":", pos);
    if (ts_pos != std::string::npos)
      ts = std::atoll(text.c_str() + ts_pos + 5);
    if (dur_pos != std::string::npos)
      dur = std::atoll(text.c_str() + dur_pos + 6);
    return std::pair<long long, long long>(ts, dur);
  };
  const auto [inner_ts, inner_dur] = read_event(inner_pos);
  const auto [outer_ts, outer_dur] = read_event(outer_pos);
  ASSERT_GE(inner_ts, 0);
  ASSERT_GE(outer_ts, 0);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);

  std::filesystem::remove(path);
}

TEST(Trace, DisabledSpansCostNothingAndEmitNothing) {
  trace_stop();
  EXPECT_FALSE(trace_enabled());
  Span span("never-recorded");
  trace_instant("never-recorded-instant");
  // Nothing to assert beyond "does not crash": no file is open.
}

TEST(RunReport, JsonRoundTrip) {
  Registry r;
  r.counter("rr.count").inc(7);
  r.histogram("rr.lat").observe(3.0);
  RunReport report;
  report.set_name("unit-test-run");
  report.add_config("scale", 2.0);
  report.add_config("site", std::string("rockyou"));
  report.add_config("site", std::string("linkedin"));  // overwrite wins
  report.add_stage("train", 2.0, 1000.0);
  report.add_stage("idle", 0.5);
  const std::string json = report.to_json(&r);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"name\":\"unit-test-run\""), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"linkedin\""), std::string::npos);
  EXPECT_EQ(json.find("\"site\":\"rockyou\""), std::string::npos);
  EXPECT_NE(json.find("\"items_per_sec\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rr.count\":7"), std::string::npos);
  EXPECT_NE(json.find("\"rr.lat\""), std::string::npos);
}

TEST(RunReport, WritesFileAndStageTimerRecords) {
  Registry r;
  RunReport report;
  report.set_name("file-run");
  {
    StageTimer stage("stage-a", report);
    stage.set_items(10.0);
  }
  const auto path = std::filesystem::temp_directory_path() /
                    "ppg_obs_report_test.json";
  ASSERT_TRUE(report.write(path.string(), &r));
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(validate_json(buf.str()));
  EXPECT_NE(buf.str().find("\"stage-a\""), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ppg::obs
