#include "obs/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/line_protocol.h"

namespace dfs::obs {
namespace {

std::string TracePath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TraceWriterTest, DisabledByDefaultAndSpansAreFree) {
  ASSERT_FALSE(TraceWriter::enabled());
  TraceSpan span("noop");  // must not crash or write anywhere
}

TEST(TraceWriterTest, SecondOpenWithoutCloseFails) {
  const std::string path = TracePath("dfs_trace_reopen.jsonl");
  ASSERT_TRUE(TraceWriter::Open(path).ok());
  EXPECT_FALSE(TraceWriter::Open(path).ok());
  TraceWriter::Close();
  EXPECT_FALSE(TraceWriter::enabled());
}

TEST(TraceSpanTest, NestingProducesWellFormedFlatJsonl) {
  const std::string path = TracePath("dfs_trace_nesting.jsonl");
  ASSERT_TRUE(TraceWriter::Open(path).ok());
  {
    TraceSpan outer("engine.run", "SFS(NR)");
    {
      TraceSpan inner("fs.ranking", "detail with \"quotes\" and \\slash");
    }
    TraceSpan sibling("test.sibling");
  }
  TraceWriter::Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);  // spans close inner-first
  // Every line is a flat JSON object the serve wire parser accepts.
  std::vector<serve::JsonObject> spans;
  for (const std::string& line : lines) {
    auto object = serve::ParseJsonLine(line);
    ASSERT_TRUE(object.ok()) << line;
    EXPECT_TRUE(serve::GetString(*object, "span").ok()) << line;
    EXPECT_TRUE(serve::GetNumber(*object, "start_us").ok()) << line;
    EXPECT_TRUE(serve::GetNumber(*object, "dur_us").ok()) << line;
    EXPECT_TRUE(serve::GetNumber(*object, "thread").ok()) << line;
    EXPECT_TRUE(serve::GetNumber(*object, "depth").ok()) << line;
    spans.push_back(*object);
  }

  // Lines appear in destruction order: inner, sibling, outer.
  EXPECT_EQ(serve::GetString(spans[0], "span").value_or(""), "fs.ranking");
  EXPECT_EQ(serve::GetString(spans[0], "detail").value_or(""),
            "detail with \"quotes\" and \\slash");
  EXPECT_EQ(serve::GetNumber(spans[0], "depth").value_or(-1), 1.0);
  EXPECT_EQ(serve::GetString(spans[1], "span").value_or(""),
            "test.sibling");
  EXPECT_EQ(serve::GetNumber(spans[1], "depth").value_or(-1), 1.0);
  EXPECT_EQ(serve::GetString(spans[2], "span").value_or(""), "engine.run");
  EXPECT_EQ(serve::GetString(spans[2], "detail").value_or(""), "SFS(NR)");
  EXPECT_EQ(serve::GetNumber(spans[2], "depth").value_or(-1), 0.0);

  // The outer span encloses the inner one on the shared timeline.
  const double outer_start =
      serve::GetNumber(spans[2], "start_us").value_or(-1);
  const double outer_end =
      outer_start + serve::GetNumber(spans[2], "dur_us").value_or(-1);
  const double inner_start =
      serve::GetNumber(spans[0], "start_us").value_or(-1);
  const double inner_end =
      inner_start + serve::GetNumber(spans[0], "dur_us").value_or(-1);
  EXPECT_LE(outer_start, inner_start);
  EXPECT_LE(inner_end, outer_end + 1.0);  // µs rounding slack
}

TEST(TraceSpanTest, ThreadsGetDistinctOrdinalsAndIndependentDepth) {
  const std::string path = TracePath("dfs_trace_threads.jsonl");
  ASSERT_TRUE(TraceWriter::Open(path).ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      TraceSpan outer("outer");
      TraceSpan inner("inner");
    });
  }
  for (auto& thread : threads) thread.join();
  TraceWriter::Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u * kThreads);
  std::map<int, std::vector<double>> depths_by_thread;
  for (const std::string& line : lines) {
    auto object = serve::ParseJsonLine(line);
    ASSERT_TRUE(object.ok()) << line;
    const int thread =
        static_cast<int>(serve::GetNumber(*object, "thread").value_or(-1));
    depths_by_thread[thread].push_back(
        serve::GetNumber(*object, "depth").value_or(-1));
  }
  ASSERT_EQ(depths_by_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [thread, depths] : depths_by_thread) {
    // Each thread wrote exactly its inner (depth 1) then outer (depth 0).
    ASSERT_EQ(depths.size(), 2u);
    EXPECT_EQ(depths[0], 1.0);
    EXPECT_EQ(depths[1], 0.0);
  }
}

TEST(ScopedTimerTest, RecordsStopsAndCancels) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("t.seconds");
  Counter& counter = registry.counter("t.count");
  {
    ScopedTimer timer(histogram, &counter);
  }
  EXPECT_EQ(histogram.Snapshot().count, 1u);
  EXPECT_EQ(counter.value(), 1u);
  {
    ScopedTimer timer(histogram, &counter);
    timer.Stop();
    timer.Stop();  // idempotent
  }
  EXPECT_EQ(histogram.Snapshot().count, 2u);
  EXPECT_EQ(counter.value(), 2u);
  {
    ScopedTimer timer(histogram, &counter);
    timer.Cancel();  // cache-hit path: nothing recorded
  }
  EXPECT_EQ(histogram.Snapshot().count, 2u);
  EXPECT_EQ(counter.value(), 2u);
}

}  // namespace
}  // namespace dfs::obs
