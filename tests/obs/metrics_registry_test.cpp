// Unit tests for the metrics registry: instrument semantics, get-or-create
// identity, kind-mismatch detection, and the JSON array exporter (validated
// with a real JSON parse, not substring checks).
#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "json_util.hpp"

namespace bigk::obs {
namespace {

TEST(Counter, AccumulatesMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndPeak) {
  Gauge g;
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Histogram, BucketsWithOverflow) {
  Histogram h({10.0, 100.0});
  h.observe(1.0);
  h.observe(10.0);   // inclusive upper edge -> first bucket
  h.observe(50.0);
  h.observe(1000.0);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1061.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  a.add(7);
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(registry.size(), 1u);

  Histogram& h1 = registry.histogram("x.hist", {1.0, 2.0});
  Histogram& h2 = registry.histogram("x.hist", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, KindAndBoundsMismatchThrow) {
  MetricsRegistry registry;
  registry.counter("name");
  EXPECT_THROW(registry.gauge("name"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("name", {1.0}), std::invalid_argument);
  registry.histogram("h", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsRegistry, FindReturnsNullForMissing) {
  MetricsRegistry registry;
  registry.counter("c");
  EXPECT_NE(registry.find_counter("c"), nullptr);
  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_gauge("c"), nullptr);  // wrong kind
  EXPECT_EQ(registry.find_histogram("c"), nullptr);
}

MetricsRegistry& populated(MetricsRegistry& registry) {
  registry.counter("bytes \"quoted\"").add(123);
  registry.gauge("depth").set(2.5);
  registry.histogram("sizes", {10.0, 100.0}).observe(42.0);
  return registry;
}

TEST(MetricsRegistry, JsonArrayParsesAndPreservesOrder) {
  MetricsRegistry registry;
  populated(registry);
  std::ostringstream out;
  registry.write_json_array(out);
  const testjson::Value doc = testjson::parse(out.str());
  ASSERT_EQ(doc.kind, testjson::Value::Kind::kArray);
  const std::vector<testjson::Value>& parsed = doc.items;
  ASSERT_EQ(parsed.size(), 3u);

  EXPECT_EQ(parsed[0].at("type").str, "counter");
  EXPECT_EQ(parsed[0].at("name").str, "bytes \"quoted\"");  // escaping held
  EXPECT_DOUBLE_EQ(parsed[0].at("value").number, 123.0);

  EXPECT_EQ(parsed[1].at("type").str, "gauge");
  EXPECT_EQ(parsed[1].at("name").str, "depth");
  EXPECT_DOUBLE_EQ(parsed[1].at("value").number, 2.5);

  EXPECT_EQ(parsed[2].at("type").str, "histogram");
  EXPECT_DOUBLE_EQ(parsed[2].at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(parsed[2].at("sum").number, 42.0);
  const auto& buckets = parsed[2].at("buckets").items;
  ASSERT_EQ(buckets.size(), 3u);  // two bounds + overflow
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number, 10.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number, 0.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").number, 1.0);
  EXPECT_EQ(buckets[2].at("le").str, "inf");
}

TEST(MetricsRegistry, EmptyExports) {
  MetricsRegistry registry;
  std::ostringstream array;
  registry.write_json_array(array);
  const testjson::Value doc = testjson::parse(array.str());
  EXPECT_EQ(doc.kind, testjson::Value::Kind::kArray);
  EXPECT_TRUE(doc.items.empty());
}

}  // namespace
}  // namespace bigk::obs
