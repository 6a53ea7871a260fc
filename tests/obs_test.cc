// Unit tests of the obs:: telemetry layer: registry semantics, the
// canonical merge equivalence (publish-then-merge-snapshots equals
// struct-merge-then-publish for every stats struct that publishes),
// packet-trace span decomposition, the ring buffer, the profiler, and
// the exporters.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "attack/adaptive/adaptive_attacker.h"
#include "core/online/streaming_reshaper.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/packet_trace.h"
#include "obs/profiler.h"
#include "obs/stat_views.h"
#include "runtime/adaptive_campaign.h"
#include "sim/channel/channel_stats.h"

namespace {

using namespace reshape;

TEST(LabelSetTest, SortsAndReplaces) {
  obs::LabelSet labels{{"zeta", "1"}, {"alpha", "2"}};
  EXPECT_EQ(labels.to_string(), "alpha=2,zeta=1");
  labels.set("alpha", "3");
  EXPECT_EQ(labels.to_string(), "alpha=3,zeta=1");
  EXPECT_EQ(labels.entries().size(), 2u);

  const obs::LabelSet same{{"alpha", "3"}, {"zeta", "1"}};
  EXPECT_EQ(labels, same);
}

TEST(MetricsRegistryTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(2);
  registry.counter("c").add(3);
  registry.gauge("g").max_of(4.0);
  registry.gauge("g").max_of(2.0);  // lower: high-water mark keeps 4
  auto& h = registry.histogram("h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);  // overflow bucket

  EXPECT_EQ(registry.series_count(), 3u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("c"), 5.0);
  EXPECT_EQ(snap.value("g"), 4.0);
  const obs::SeriesSnapshot* series = snap.find("h");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->histogram.count, 3u);
  ASSERT_EQ(series->histogram.counts.size(), 3u);
  EXPECT_EQ(series->histogram.counts[0], 1u);
  EXPECT_EQ(series->histogram.counts[1], 1u);
  EXPECT_EQ(series->histogram.counts[2], 1u);
  EXPECT_DOUBLE_EQ(series->histogram.min, 0.5);
  EXPECT_DOUBLE_EQ(series->histogram.max, 100.0);
}

TEST(MetricsRegistryTest, KindConflictAndBadBoundsThrow) {
  obs::MetricsRegistry registry;
  registry.counter("m").add(1);
  EXPECT_THROW((void)registry.gauge("m"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("bad", {}), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("bad", {2.0, 1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistryTest, SnapshotOrdersByNameThenLabels) {
  obs::MetricsRegistry registry;
  registry.counter("b", obs::LabelSet{{"k", "2"}}).add(1);
  registry.counter("b", obs::LabelSet{{"k", "1"}}).add(1);
  registry.counter("a").add(1);
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.series.size(), 3u);
  EXPECT_EQ(snap.series[0].name, "a");
  EXPECT_EQ(snap.series[1].labels.to_string(), "k=1");
  EXPECT_EQ(snap.series[2].labels.to_string(), "k=2");
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndMaxesGauges) {
  obs::MetricsRegistry r1;
  r1.counter("c").add(2);
  r1.gauge("g").max_of(7.0);
  r1.counter("only_left").add(1);
  obs::MetricsRegistry r2;
  r2.counter("c").add(5);
  r2.gauge("g").max_of(3.0);
  r2.counter("only_right").add(9);

  obs::MetricsSnapshot merged = r1.snapshot();
  merged.merge(r2.snapshot());
  EXPECT_EQ(merged.value("c"), 7.0);
  EXPECT_EQ(merged.value("g"), 7.0);
  EXPECT_EQ(merged.value("only_left"), 1.0);
  EXPECT_EQ(merged.value("only_right"), 9.0);
}

TEST(MetricsSnapshotTest, MergeIsCommutative) {
  obs::MetricsRegistry r1;
  r1.counter("c").add(2);
  r1.histogram("h", obs::latency_us_buckets()).observe(12.0);
  obs::MetricsRegistry r2;
  r2.gauge("g").max_of(1.0);
  r2.histogram("h", obs::latency_us_buckets()).observe(900.0);

  obs::MetricsSnapshot ab = r1.snapshot();
  ab.merge(r2.snapshot());
  obs::MetricsSnapshot ba = r2.snapshot();
  ba.merge(r1.snapshot());
  EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(MetricsSnapshotTest, MergeRejectsMismatchedHistogramBounds) {
  obs::MetricsRegistry r1;
  r1.histogram("h", {1.0, 2.0}).observe(1.0);
  obs::MetricsRegistry r2;
  r2.histogram("h", {1.0, 3.0}).observe(1.0);
  obs::MetricsSnapshot merged = r1.snapshot();
  EXPECT_THROW(merged.merge(r2.snapshot()), std::invalid_argument);
}

// The load-bearing equivalence: publishing two stats structs into one
// registry gives the same snapshot as merging the structs first (their
// own merge()) and publishing once — the registry's merge rule and the
// structs' merge rules agree, so sharded campaigns can aggregate either
// way without divergence.
TEST(StatViewsTest, StreamingPublishMatchesStructMerge) {
  core::online::StreamingStats a;
  a.packets = 10;
  a.original_bytes = 5000;
  a.added_bytes = 700;
  a.deadline_misses = 1;
  a.total_queueing_delay = util::Duration::microseconds(900);
  a.max_queueing_delay = util::Duration::microseconds(250);
  a.airtime_busy = util::Duration::microseconds(4000);
  a.max_queue_depth = 3;
  core::online::StreamingStats b;
  b.packets = 4;
  b.original_bytes = 2000;
  b.added_bytes = 100;
  b.deadline_misses = 0;
  b.total_queueing_delay = util::Duration::microseconds(300);
  b.max_queueing_delay = util::Duration::microseconds(400);
  b.airtime_busy = util::Duration::microseconds(1500);
  b.max_queue_depth = 7;

  obs::MetricsRegistry both;
  obs::publish(both, a);
  obs::publish(both, b);

  core::online::StreamingStats merged = a;
  merged.merge(b);
  obs::MetricsRegistry once;
  obs::publish(once, merged);

  EXPECT_EQ(both.snapshot().to_json(), once.snapshot().to_json());
}

TEST(StatViewsTest, ChannelPublishMatchesStructMerge) {
  sim::channel::ChannelStats a;
  a.frames_sent = 40;
  a.frames_dropped = 2;
  a.collisions = 5;
  a.retries = 6;
  a.total_access_delay = util::Duration::microseconds(8000);
  a.max_access_delay = util::Duration::microseconds(700);
  a.airtime = util::Duration::microseconds(30000);
  a.max_queue_depth = 4;
  sim::channel::ChannelStats b;
  b.frames_sent = 10;
  b.frames_dropped = 0;
  b.collisions = 1;
  b.retries = 1;
  b.total_access_delay = util::Duration::microseconds(1500);
  b.max_access_delay = util::Duration::microseconds(900);
  b.airtime = util::Duration::microseconds(8000);
  b.max_queue_depth = 2;

  obs::MetricsRegistry both;
  obs::publish(both, a);
  obs::publish(both, b);

  sim::channel::ChannelStats merged = a;
  merged.merge(b);
  obs::MetricsRegistry once;
  obs::publish(once, merged);

  EXPECT_EQ(both.snapshot().to_json(), once.snapshot().to_json());

  // The snapshots also merge to the same result (registry-level shard
  // aggregation path).
  obs::MetricsRegistry r1;
  obs::publish(r1, a);
  obs::MetricsRegistry r2;
  obs::publish(r2, b);
  obs::MetricsSnapshot folded = r1.snapshot();
  folded.merge(r2.snapshot());
  EXPECT_EQ(folded.to_json(), once.snapshot().to_json());
}

// EpochAggregate::merge is THE canonical shard-merge of one epoch —
// every field of the score folds in (a hand-rolled merge in the tuner
// once dropped windows and both label tallies).
TEST(StatViewsTest, EpochAggregateMergeFoldsEveryField) {
  constexpr int kClasses = static_cast<int>(traffic::kAppCount);
  attack::adaptive::EpochScore a;
  a.windows = 6;
  a.confusion = ml::ConfusionMatrix{kClasses};
  a.confusion.add(0, 0);
  a.confusion.add(1, 2);
  a.static_confusion = ml::ConfusionMatrix{kClasses};
  a.static_confusion.add(2, 2);
  a.labels_correct = 5;
  a.labels_assigned = 6;
  attack::adaptive::EpochScore b;
  b.windows = 4;
  b.confusion = ml::ConfusionMatrix{kClasses};
  b.confusion.add(1, 1);
  b.static_confusion = ml::ConfusionMatrix{kClasses};
  b.static_confusion.add(0, 1);
  b.labels_correct = 3;
  b.labels_assigned = 4;

  runtime::EpochAggregate agg;
  agg.merge(a);
  agg.merge(b);
  EXPECT_EQ(agg.windows, 10u);
  EXPECT_EQ(agg.labels_correct, 8u);
  EXPECT_EQ(agg.labels_assigned, 10u);
  EXPECT_EQ(agg.confusion.total(), 3u);
  EXPECT_EQ(agg.confusion.count(1, 1), 1u);
  EXPECT_EQ(agg.static_confusion.total(), 2u);

  // And the registry view agrees with it: counters published from both
  // scores sum to the aggregate's evidence.
  obs::MetricsRegistry registry;
  obs::publish(registry, a);
  obs::publish(registry, b);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("adaptive_windows_total"), 10.0);
  EXPECT_EQ(snap.value("adaptive_labels_correct_total"), 8.0);
  EXPECT_EQ(snap.value("adaptive_labels_assigned_total"), 10.0);
  EXPECT_EQ(snap.value("adaptive_predictions_total"),
            static_cast<double>(agg.confusion.total()));
  EXPECT_EQ(snap.value("adaptive_predictions_correct_total"), 2.0);
}

TEST(PacketTraceTest, SpanDecomposition) {
  obs::PacketTrace trace;
  const std::uint64_t id = trace.next_frame_id();
  EXPECT_EQ(id, 1u);
  const auto at = [](std::int64_t us) {
    return util::TimePoint::from_microseconds(us);
  };
  trace.record(id, obs::Hop::kEnqueue, at(1000));
  trace.record(id, obs::Hop::kShape, at(1000), /*bytes added=*/120);
  trace.record(id, obs::Hop::kSchedule, at(1400));
  trace.record(id, obs::Hop::kChannelEnqueue, at(1400));
  trace.record(id, obs::Hop::kOnAir, at(1650), /*airtime us=*/300);
  trace.record(id, obs::Hop::kSniffed, at(1650));

  const obs::FrameSpans spans = trace.spans_of(id);
  EXPECT_TRUE(spans.complete);
  EXPECT_FALSE(spans.dropped);
  EXPECT_EQ(spans.queueing.count_us(), 400);
  EXPECT_EQ(spans.backoff.count_us(), 250);
  EXPECT_EQ(spans.airtime.count_us(), 300);
  EXPECT_EQ(spans.end_to_end.count_us(), 650);
  EXPECT_EQ(spans.padded_bytes, 120);
  EXPECT_EQ(spans.queueing.count_us() + spans.backoff.count_us(),
            spans.end_to_end.count_us());
}

TEST(PacketTraceTest, UntracedAndDroppedFrames) {
  obs::PacketTrace trace;
  trace.record(0, obs::Hop::kEnqueue, util::TimePoint{});  // no-op
  EXPECT_EQ(trace.size(), 0u);

  const std::uint64_t id = trace.next_frame_id();
  trace.record(id, obs::Hop::kEnqueue, util::TimePoint{});
  trace.record(id, obs::Hop::kDropped,
               util::TimePoint::from_microseconds(50));
  const obs::FrameSpans spans = trace.spans_of(id);
  EXPECT_TRUE(spans.dropped);
  EXPECT_FALSE(spans.complete);
  EXPECT_TRUE(trace.complete_frames().empty());
}

TEST(PacketTraceTest, RingBufferEvictsOldest) {
  obs::PacketTrace trace{4};
  for (std::int64_t i = 0; i < 6; ++i) {
    trace.record(trace.next_frame_id(), obs::Hop::kEnqueue,
                 util::TimePoint::from_microseconds(i));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.evicted_events(), 2u);
  const std::vector<obs::SpanEvent> events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().frame_id, 3u);  // 1 and 2 evicted
  EXPECT_EQ(events.back().frame_id, 6u);
}

TEST(ProfilerTest, DisabledLapsAreInertAndEnabledLapsCount) {
  obs::CellLaps laps;  // default: off
  {
    const obs::PhaseLap none{nullptr, obs::Phase::kFeatures};
    const obs::PhaseLap off{&laps, obs::Phase::kFeatures};
    const obs::PhaseLap no_sample{static_cast<obs::PhaseSample*>(nullptr)};
  }
  for (const obs::PhaseSample& sample : laps.phases) {
    EXPECT_EQ(sample.calls, 0u);
  }

  laps.enabled = true;
  {
    const obs::PhaseLap whole{&laps.cell};
    const obs::PhaseLap features{&laps, obs::Phase::kFeatures};
    const obs::PhaseLap adaptive{&laps, obs::Phase::kAdaptive};
  }
  {
    const obs::PhaseLap again{&laps, obs::Phase::kFeatures};
  }
  const auto calls = [&laps](obs::Phase phase) {
    return laps.phases[static_cast<std::size_t>(phase)].calls;
  };
  EXPECT_EQ(laps.cell.calls, 1u);
  EXPECT_EQ(calls(obs::Phase::kFeatures), 2u);
  EXPECT_EQ(calls(obs::Phase::kAdaptive), 1u);
  EXPECT_EQ(calls(obs::Phase::kGeneration), 0u);
  EXPECT_GE(laps.cell.wall_us, 0);

  // The fold names the cell, sums "cells", and skips phases with no laps.
  obs::PhaseProfiler profiler;
  profiler.add(7, laps);
  profiler.add(9, laps);
  const auto snap = profiler.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_EQ(snap.at("cells").calls, 2u);
  EXPECT_EQ(snap.at("cell/7").calls, 1u);
  EXPECT_EQ(snap.at("cell/9").calls, 1u);
  EXPECT_EQ(snap.at("features").calls, 4u);
  EXPECT_EQ(snap.at("adaptive").calls, 2u);
  EXPECT_EQ(snap.count("generation"), 0u);
  EXPECT_EQ(profiler.to_json().find("{\"adaptive\":{\"wall_us\":"), 0u);
  profiler.clear();
  EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(ExportTest, SnapshotJsonAndCsvAreStable) {
  obs::MetricsRegistry registry;
  registry.counter("c", obs::LabelSet{{"cell", "0"}, {"a", "x"}}).add(3);
  registry.gauge("g").max_of(1.5);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.to_json(),
            "[{\"name\":\"c\",\"labels\":{\"a\":\"x\",\"cell\":\"0\"},"
            "\"kind\":\"counter\",\"value\":3},"
            "{\"name\":\"g\",\"labels\":{},\"kind\":\"gauge\","
            "\"value\":1.5}]");
  EXPECT_EQ(snap.to_json(), registry.snapshot().to_json());
}

TEST(ExportTest, TelemetryExportOmitsAbsentSections) {
  const obs::TelemetryExport empty;
  EXPECT_EQ(empty.to_json(), "{}");

  obs::MetricsRegistry registry;
  registry.counter("c").add(1);
  const obs::MetricsSnapshot snap = registry.snapshot();
  obs::PacketTrace trace;
  obs::TelemetryExport doc;
  doc.metrics = &snap;
  doc.trace = &trace;
  const std::string json = doc.to_json();
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_EQ(json.find("\"profile\":"), std::string::npos);
}

TEST(ExportTest, EnvGatesRecognizeOffValues) {
  ASSERT_EQ(unsetenv("OBS_TEST_FLAG"), 0);
  EXPECT_TRUE(obs::env_enabled("OBS_TEST_FLAG", true));
  EXPECT_FALSE(obs::env_enabled("OBS_TEST_FLAG", false));
  ASSERT_EQ(setenv("OBS_TEST_FLAG", "off", 1), 0);
  EXPECT_FALSE(obs::env_enabled("OBS_TEST_FLAG", true));
  ASSERT_EQ(setenv("OBS_TEST_FLAG", "1", 1), 0);
  EXPECT_TRUE(obs::env_enabled("OBS_TEST_FLAG", false));
  ASSERT_EQ(unsetenv("OBS_TEST_FLAG"), 0);
}

}  // namespace
