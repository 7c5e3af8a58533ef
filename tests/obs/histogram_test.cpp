/// \file histogram_test.cpp
/// \brief Unit tests for the metrics registry's log-bucketed histogram:
/// bucket math, merge, quantile interpolation, and the registry plumbing
/// through spans, explicit observations, and the JSON export.

#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics_json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace pml::obs {
namespace {

TEST(Histogram, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, BucketOfIsLogTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
}

TEST(Histogram, BucketFloorInvertsBucketOf) {
  for (int b = 1; b < Histogram::kBuckets; ++b) {
    const std::uint64_t lo = Histogram::bucket_floor(b);
    EXPECT_EQ(Histogram::bucket_of(lo), b) << "bucket " << b;
    if (b > 1) {
      EXPECT_EQ(Histogram::bucket_of(lo - 1), b - 1);
    }
  }
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  Histogram h;
  h.record(10);
  h.record(500);
  h.record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 513u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 500u);
  EXPECT_DOUBLE_EQ(h.mean(), 171.0);
}

TEST(Histogram, QuantileIsClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  // All mass in one bucket: any quantile must stay within [min, max] even
  // though the bucket spans [512, 2048).
  EXPECT_GE(h.quantile(0.0), 1000.0);
  EXPECT_LE(h.quantile(0.5), 1000.0);
  EXPECT_LE(h.quantile(0.999), 1000.0);
}

TEST(Histogram, QuantilesOrderAcrossSpreadValues) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.record(v);
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log-bucketed interpolation is coarse, but a median of a uniform 1..1024
  // stream must land in the right half-decade.
  EXPECT_GT(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
  EXPECT_LE(p99, 1024.0);
}

TEST(Histogram, MergeIsCountAndBoundPreserving) {
  Histogram a;
  Histogram b;
  a.record(5);
  a.record(100);
  b.record(70000);
  b.record(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 70107u);
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 70000u);
  // Merging an empty histogram changes nothing.
  a.merge(Histogram{});
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 2u);
}

TEST(Histogram, ZeroValuesLandInBucketZero) {
  Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(MetricNames, AreStableAndDistinct) {
  EXPECT_STREQ(to_string(Metric::kMessageLatency), "message-latency-ns");
  EXPECT_STREQ(to_string(Metric::kBarrierWait), "barrier-wait-ns");
  EXPECT_STREQ(to_string(Metric::kRetryAttempts), "retry-attempts");
  EXPECT_TRUE(is_nanoseconds(Metric::kLockWait));
  EXPECT_FALSE(is_nanoseconds(Metric::kRetryAttempts));
}

// ---------------------------------------------------------------------------
// Registry plumbing: spans feed histograms, observe() records directly, and
// end_scope merges per-lane registries into per-task and cluster-wide views.

TEST(Registry, SpansFeedTheMatchingHistogram) {
  Scope scope;
  { SpanScope s{SpanKind::kBarrier, "b"}; }
  { SpanScope s{SpanKind::kBarrier, "b"}; }
  { SpanScope s{SpanKind::kLockWait, "l"}; }
  const Profile p = scope.finish();
  EXPECT_EQ(p.metric(Metric::kBarrierWait).count(), 2u);
  EXPECT_EQ(p.metric(Metric::kLockWait).count(), 1u);
  EXPECT_EQ(p.metric(Metric::kMessageLatency).count(), 0u);
  // Histogram sum equals the recorded spans' total duration.
  std::uint64_t barrier_ns = 0;
  for (const Span& s : p.spans) {
    if (s.kind == SpanKind::kBarrier) barrier_ns += s.duration_ns();
  }
  EXPECT_EQ(p.metric(Metric::kBarrierWait).sum(), barrier_ns);
}

TEST(Registry, ObserveRecordsOutsideAnySpan) {
  Scope scope;
  observe(Metric::kMessageLatency, 1234);
  observe(Metric::kRetryAttempts, 1);
  observe(Metric::kRetryAttempts, 1);
  const Profile p = scope.finish();
  EXPECT_EQ(p.metric(Metric::kMessageLatency).count(), 1u);
  EXPECT_EQ(p.metric(Metric::kMessageLatency).sum(), 1234u);
  EXPECT_EQ(p.metric(Metric::kRetryAttempts).count(), 2u);
}

TEST(Registry, ObserveOutsideScopeIsANoOp) {
  ASSERT_FALSE(active());
  observe(Metric::kMessageLatency, 99);  // must not crash or leak anywhere
  Scope scope;
  const Profile p = scope.finish();
  EXPECT_EQ(p.metric(Metric::kMessageLatency).count(), 0u);
}

TEST(Registry, MetricsJsonSerializesNonEmptyHistograms) {
  Scope scope;
  { SpanScope s{SpanKind::kLockWait, "l"}; }
  observe(Metric::kMessageLatency, 512);
  const Profile p = scope.finish();
  const std::string json = metrics_json(p, "test/slug");
  EXPECT_NE(json.find("\"slug\": \"test/slug\""), std::string::npos);
  EXPECT_NE(json.find("\"lock-wait-ns\""), std::string::npos);
  EXPECT_NE(json.find("\"message-latency-ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Empty histograms are omitted, not serialized as zeros.
  EXPECT_EQ(json.find("\"task-ns\""), std::string::npos);
}

}  // namespace
}  // namespace pml::obs
