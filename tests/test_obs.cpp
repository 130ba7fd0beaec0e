// Tests for the observability layer (src/obs/): trace JSON
// well-formedness and nesting balance, metrics thread-safety under
// parallel_for, CSV/JSON table round-trips, and the manifest schema.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/thread_pool.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpucnn::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh global tracer/metrics state per test; restores on scope exit.
struct ObsSandbox {
  ObsSandbox() {
    tracer().clear();
    tracer().enable(false);
    metrics().reset();
  }
  ~ObsSandbox() {
    tracer().clear();
    tracer().enable(false);
    metrics().reset();
  }
};

/// A throw-away directory under the system temp path.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("gpucnn_obs_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- Json

TEST(JsonTest, EscapesAndTypes) {
  Json doc = Json::object();
  doc.set("s", "a\"b\\c\n\t");
  doc.set("i", 42);
  doc.set("d", 2.5);
  doc.set("b", true);
  doc.set("n", Json());
  EXPECT_EQ(doc.dump_string(),
            R"({"s":"a\"b\\c\n\t","i":42,"d":2.5,"b":true,"n":null})");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull) {
  Json arr = Json::array();
  arr.push(std::numeric_limits<double>::infinity());
  arr.push(std::numeric_limits<double>::quiet_NaN());
  arr.push(1.0);
  EXPECT_EQ(arr.dump_string(), "[null,null,1]");
}

TEST(JsonTest, SetReplacesExistingKey) {
  Json doc = Json::object();
  doc.set("k", 1).set("k", 2);
  EXPECT_EQ(doc.dump_string(), R"({"k":2})");
}

TEST(JsonTest, ParseReadsBackWhatTheWriterWrote) {
  Json doc = Json::object();
  doc.set("s", "a\"b\\c\n").set("n", -12.5e-3).set("t", true).set("z", Json());
  Json arr = Json::array();
  arr.push(1).push(Json::object()).push(Json::array());
  doc.set("arr", std::move(arr));
  for (const int indent : {0, 2}) {
    const auto parsed = parse_json(doc.dump_string(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_EQ(parsed->dump_string(), doc.dump_string());
  }
}

TEST(JsonTest, ParseRejectsMalformedAndTooDeepInput) {
  for (const std::string_view bad :
       {"", "[", "{\"a\":}", "[1,]x", "01x", "inf", "-nan", "0x1p3", "+1",
        "1e999", "\"open", "tru", "[1] 2"}) {
    EXPECT_FALSE(parse_json(bad).has_value()) << bad;
  }
  // 64 nested levels parse; the 65th is refused rather than recursed.
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  EXPECT_TRUE(parse_json(nested(64)).has_value());
  EXPECT_FALSE(parse_json(nested(65)).has_value());
  EXPECT_FALSE(parse_json(std::string(100'000, '[')).has_value());
}

// --------------------------------------------------------------- Trace

TEST(TraceTest, DisabledTracerRecordsNothing) {
  ObsSandbox sandbox;
  {
    Span span(tracer(), "ignored", "test");
  }
  EXPECT_EQ(tracer().event_count(), 0U);
}

TEST(TraceTest, SpansNestAndBalance) {
  ObsSandbox sandbox;
  tracer().enable(true);
  {
    Span outer(tracer(), "outer", "test");
    {
      Span inner(tracer(), "inner", "test");
    }
  }
  const auto events = tracer().events();
  ASSERT_EQ(events.size(), 2U);
  // Destructor order: inner completes first, and lies inside outer.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.duration_us,
            inner.start_us + inner.duration_us);
}

TEST(TraceTest, ChromeJsonIsWellFormedAndNested) {
  ObsSandbox sandbox;
  tracer().enable(true);
  {
    Span a(tracer(), "a", "test");
    Span b(tracer(), "b", "test");
    b.arg("key", "value \"quoted\"");
  }
  const auto gpu = tracer().virtual_track("sim:gpu");
  tracer().append_at_cursor(gpu, "k1", "sim.kernel", 10.0, {});
  tracer().append_at_cursor(gpu, "k2", "sim.kernel", 5.0, {});

  std::ostringstream os;
  tracer().write_chrome_json(os);
  const std::string text = os.str();

  // Structural checks without a JSON parser: balanced braces/brackets
  // and the two required top-level keys.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, VirtualTrackCursorAppendsEndToEnd) {
  ObsSandbox sandbox;
  tracer().enable(true);
  const auto track = tracer().virtual_track("sim:gpu");
  const double t0 = tracer().append_at_cursor(track, "a", "sim.kernel",
                                              100.0, {});
  const double t1 = tracer().append_at_cursor(track, "b", "sim.kernel",
                                              50.0, {});
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 100.0);
  EXPECT_DOUBLE_EQ(tracer().cursor_us(track), 150.0);
  // Same name resolves to the same track.
  EXPECT_EQ(tracer().virtual_track("sim:gpu"), track);
}

TEST(TraceTest, ThreadsGetDistinctTracks) {
  ObsSandbox sandbox;
  tracer().enable(true);
  {
    Span main_span(tracer(), "main", "test");
    std::thread worker([] { Span s(tracer(), "worker", "test"); });
    worker.join();
  }
  const auto events = tracer().events();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_NE(events[0].track, events[1].track);
}

// ------------------------------------------------------------- Metrics

TEST(MetricsTest, CountersRaceFreeUnderParallelFor) {
  ObsSandbox sandbox;
  auto& counter = metrics().counter("test.counter");
  auto& hist = metrics().histogram("test.hist");
  constexpr std::size_t kItems = 100000;
  parallel_for(0, kItems, [&](std::size_t i) {
    counter.add(1);
    hist.record(static_cast<double>(i % 17));
  });
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kItems));
  EXPECT_EQ(hist.snapshot().count, static_cast<std::int64_t>(kItems));
}

TEST(MetricsTest, HistogramSnapshotStatistics) {
  ObsSandbox sandbox;
  auto& hist = metrics().histogram("test.stats");
  for (const double v : {1.0, 2.0, 4.0, 8.0}) hist.record(v);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_DOUBLE_EQ(snap.sum, 15.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
}

TEST(MetricsTest, ResetKeepsReferencesValid) {
  ObsSandbox sandbox;
  auto& counter = metrics().counter("test.reset");
  counter.add(7);
  metrics().reset();
  EXPECT_EQ(counter.value(), 0);
  counter.add(3);
  EXPECT_EQ(metrics().counter("test.reset").value(), 3);
}

TEST(MetricsTest, SnapshotIsValidJson) {
  ObsSandbox sandbox;
  metrics().counter("c").add(2);
  metrics().gauge("g").set(1.5);
  metrics().histogram("h").record(3.0);
  const auto snap = metrics().snapshot();
  const std::string text = snap.dump_string();
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"gauges\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);
}

// ------------------------------------------------------------ Exporter

TEST(ExporterTest, SanitizeColumn) {
  EXPECT_EQ(sanitize_column("time (ms)"), "time_ms");
  EXPECT_EQ(sanitize_column("Theano-CorrMM"), "theano_corrmm");
  EXPECT_EQ(sanitize_column("  Shared Memory (KB) "), "shared_memory_kb");
  EXPECT_EQ(sanitize_column("wee(%)"), "wee");
}

TEST(ExporterTest, ParseStripsFlagsAndKeepsPositionalDir) {
  const char* raw[] = {"tool", "--json", "outdir", "--trace", "--keep"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  const auto opts = ExportOptions::parse(argc, argv);
  EXPECT_TRUE(opts.json);
  EXPECT_TRUE(opts.trace);
  EXPECT_FALSE(opts.csv);
  EXPECT_EQ(opts.dir, fs::path("outdir"));
  ASSERT_EQ(argc, 2);  // unrecognised flag left for the caller
  EXPECT_STREQ(argv[1], "--keep");
}

TEST(ExporterTest, InactiveExporterWritesNothing) {
  ObsSandbox sandbox;
  TempDir tmp;
  ExportOptions opts;
  opts.dir = tmp.path / "never";
  {
    RunExporter exporter(opts, "test_tool");
    exporter.add_table("t", "desc", {"a"}, {{"1"}});
    exporter.finish();
  }
  EXPECT_FALSE(fs::exists(opts.dir));
}

TEST(ExporterTest, TableRoundTripsThroughCsvAndJson) {
  ObsSandbox sandbox;
  TempDir tmp;
  ExportOptions opts;
  opts.json = true;
  opts.csv = true;
  opts.dir = tmp.path;
  {
    RunExporter exporter(opts, "test_tool");
    exporter.add_table("t", "a table",
                       {"Name", "time (ms)", "note"},
                       {{"alpha, \"quoted\"", "1.5", "n/s"},
                        {"beta", "2", ""}});
  }
  // CSV: RFC 4180 quoting, sanitised header.
  const std::string csv = slurp(tmp.path / "t.csv");
  EXPECT_EQ(csv,
            "name,time_ms,note\n"
            "\"alpha, \"\"quoted\"\"\",1.5,n/s\n"
            "beta,2,\n");
  // JSON: typed cells — numbers as numbers, empty as null.
  const std::string json = slurp(tmp.path / "t.json");
  EXPECT_NE(json.find("\"schema_version\": \"1.0.0\""), std::string::npos);
  EXPECT_NE(json.find("\"time_ms\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"time_ms\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"n/s\""), std::string::npos);
  EXPECT_NE(json.find("\"note\": null"), std::string::npos);
}

TEST(ExporterTest, ManifestCarriesSchemaVersionAndArtifacts) {
  ObsSandbox sandbox;
  TempDir tmp;
  ExportOptions opts;
  opts.json = true;
  opts.trace = true;
  opts.dir = tmp.path;
  {
    RunExporter exporter(opts, "test_tool");
    EXPECT_TRUE(tracer().enabled());
    exporter.annotate("device", "Tesla K40c");
    exporter.add_table("t", "a table", {"x"}, {{"1"}});
    const auto manifest = exporter.finish();
    EXPECT_EQ(manifest, tmp.path / "manifest.json");
  }
  const std::string text = slurp(tmp.path / "manifest.json");
  EXPECT_NE(text.find("\"schema_version\": \"1.0.0\""), std::string::npos);
  EXPECT_NE(text.find("\"tool\": \"test_tool\""), std::string::npos);
  EXPECT_NE(text.find("\"device\": \"Tesla K40c\""), std::string::npos);
  EXPECT_NE(text.find("\"t.json\""), std::string::npos);
  EXPECT_NE(text.find("\"trace.json\""), std::string::npos);
  EXPECT_TRUE(fs::exists(tmp.path / "trace.json"));
  // finish() disables the tracer it enabled.
  EXPECT_FALSE(tracer().enabled());
}

}  // namespace
}  // namespace gpucnn::obs
