// Wire-format tests for the shard-server protocol (runtime/wire.h):
// round-trip identity for every codec — including empty and degenerate
// values — plus the malformed-input rejections the determinism contract
// depends on: truncation at every length, bad magic, version mismatch,
// unknown frame types, and trailing garbage. Mirrors the
// config_protocol truncation-sweep style in tests/net_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/wire.h"
#include "util/time.h"

namespace {

using namespace reshape;
using namespace reshape::runtime;

// ---------------------------------------------------------------- fixtures

wire::WorkOrder sample_order() {
  wire::WorkOrder order;
  order.job = "campaign";
  order.begin = 3;
  order.end = 9;
  order.threads = 2;
  order.telemetry.metrics = true;
  order.telemetry.windowed = true;
  order.telemetry.privacy = true;
  order.telemetry.window = util::Duration::seconds(2.5);
  return order;
}

obs::MetricsSnapshot sample_metrics() {
  obs::MetricsSnapshot snapshot;

  obs::SeriesSnapshot counter;
  counter.name = "campaign_cells_total";
  counter.labels.set("defense", "OR");
  counter.labels.set("scenario", "multi-app-station");
  counter.kind = obs::MetricKind::kCounter;
  counter.counter = 42;
  snapshot.series.push_back(counter);

  obs::SeriesSnapshot gauge;
  gauge.name = "campaign_mean_accuracy_percent";
  gauge.labels.set("defense", "Original");
  gauge.kind = obs::MetricKind::kGauge;
  gauge.gauge = 87.25;
  snapshot.series.push_back(gauge);

  obs::SeriesSnapshot histogram;
  histogram.name = "campaign_cell_latency_us";
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.histogram.upper_bounds = {10.0, 100.0, 1000.0};
  histogram.histogram.counts = {1, 2, 3};
  histogram.histogram.count = 6;
  histogram.histogram.sum = 1234.5;
  histogram.histogram.min = 4.0;
  histogram.histogram.max = 900.0;
  snapshot.series.push_back(histogram);

  return snapshot;
}

obs::WindowedSnapshot sample_windows() {
  obs::WindowedSnapshot snapshot;
  snapshot.window_us = 1'000'000;
  obs::SeriesWindows series;
  series.name = "campaign_offered_bytes";
  series.labels.set("shard", "0");
  series.points.push_back(
      obs::WindowPoint{.window = 0, .value = {.count = 3,
                                              .sum = 4096.0,
                                              .min = 512.0,
                                              .max = 2048.0}});
  series.points.push_back(
      obs::WindowPoint{.window = 7, .value = {.count = 1,
                                              .sum = 64.0,
                                              .min = 64.0,
                                              .max = 64.0}});
  snapshot.series.push_back(series);
  return snapshot;
}

attack::adaptive::EpochScore sample_epoch() {
  attack::adaptive::EpochScore score;
  score.epoch = 4;
  score.start = util::TimePoint::from_microseconds(1'000'000);
  score.end = util::TimePoint::from_microseconds(11'000'000);
  score.windows = 5;
  score.confusion = ml::ConfusionMatrix{3};
  score.confusion.add(0, 0);
  score.confusion.add(1, 2);
  score.static_confusion = ml::ConfusionMatrix{3};
  score.static_confusion.add(2, 2);
  score.labels_correct = 9;
  score.labels_assigned = 11;
  score.training_rows = 37;
  score.refitted = true;
  return score;
}

CampaignRangeOutcome sample_campaign_range() {
  CampaignRangeOutcome outcome;
  outcome.begin = 2;
  outcome.end = 4;
  outcome.cells.resize(2);
  outcome.cells[0].defense_index = 1;
  outcome.cells[0].scenario_index = 0;
  outcome.cells[0].shard = 0;
  outcome.cells[0].session_count = 6;
  outcome.cells[0].evaluation.defense_name = "OR";
  outcome.cells[0].evaluation.classifier_name = "svm";
  outcome.cells[0].evaluation.confusion.add(0, 0);
  outcome.cells[0].evaluation.confusion.add(1, 0);
  outcome.cells[0].evaluation.accuracy[0] = 100.0;
  outcome.cells[0].evaluation.false_positive[1] = 50.0;
  outcome.cells[0].evaluation.overhead[2] = 12.5;
  outcome.cells[0].evaluation.mean_accuracy = 37.5;
  outcome.cells[0].evaluation.mean_false_positive = 7.0;
  outcome.cells[0].evaluation.mean_overhead = 12.5;
  outcome.cells[1].defense_index = 1;
  outcome.cells[1].scenario_index = 0;
  outcome.cells[1].shard = 1;
  outcome.metrics = sample_metrics();
  outcome.windows = sample_windows();
  return outcome;
}

AdaptiveRangeOutcome sample_adaptive_range() {
  AdaptiveRangeOutcome outcome;
  outcome.begin = 0;
  outcome.end = 1;
  outcome.cells.resize(1);
  outcome.cells[0].defense_index = 0;
  outcome.cells[0].scenario_index = 0;
  outcome.cells[0].shard = 0;
  outcome.cells[0].session_count = 3;
  outcome.cells[0].flow_count = 12;
  outcome.cells[0].epochs.push_back(sample_epoch());
  outcome.metrics = sample_metrics();
  return outcome;
}

core::tuning::TuningRangeOutcome sample_tuning_range() {
  core::tuning::TuningRangeOutcome outcome;
  outcome.begin = 5;
  outcome.end = 6;
  outcome.cells.resize(1);
  core::tuning::CandidateShardOutcome& cell = outcome.cells[0];
  cell.sessions = 4;
  cell.flows = 16;
  cell.epochs.push_back(sample_epoch());
  cell.streaming.packets = 1000;
  cell.streaming.original_bytes = 64000;
  cell.streaming.added_bytes = 8000;
  cell.streaming.deadline_misses = 3;
  cell.streaming.total_queueing_delay = util::Duration::microseconds(5000);
  cell.streaming.max_queueing_delay = util::Duration::microseconds(900);
  cell.streaming.airtime_busy = util::Duration::microseconds(120000);
  cell.streaming.max_queue_depth = 17;
  cell.access_delay_us = {1.5, 2.5, 100.0};
  cell.frames_dropped = 2;
  outcome.windows = sample_windows();
  return outcome;
}

// ------------------------------------------------------------- round trips

TEST(WireTest, WorkOrderRoundTrip) {
  const wire::WorkOrder order = sample_order();
  const std::vector<std::uint8_t> bytes = wire::encode_work_order(order);
  const wire::WorkOrder back = wire::decode_work_order(bytes);
  EXPECT_EQ(back, order);
  // encode(decode(bytes)) == bytes: the codec is canonical.
  EXPECT_EQ(wire::encode_work_order(back), bytes);
}

TEST(WireTest, EmptyWorkOrderRoundTrip) {
  const wire::WorkOrder order;  // empty job name, zero range, default config
  const wire::WorkOrder back =
      wire::decode_work_order(wire::encode_work_order(order));
  EXPECT_EQ(back, order);
}

TEST(WireTest, TelemetryConfigRoundTripAllCombinations) {
  for (int bits = 0; bits < 64; ++bits) {
    obs::TelemetryConfig config;
    config.metrics = (bits & 1) != 0;
    config.profiling = (bits & 2) != 0;
    config.tracing = (bits & 4) != 0;
    config.windowed = (bits & 8) != 0;
    config.privacy = (bits & 16) != 0;
    config.privacy_pairs = (bits & 32) != 0;
    wire::WireWriter writer;
    wire::encode(writer, config);
    wire::WireReader reader{writer.buffer()};
    EXPECT_EQ(wire::decode_telemetry_config(reader), config);
    reader.require_exhausted();
  }
}

TEST(WireTest, LabelSetRoundTrip) {
  obs::LabelSet labels;
  labels.set("defense", "OR");
  labels.set("scenario", "dense-wlan");
  labels.set("shard", "3");
  wire::WireWriter writer;
  wire::encode(writer, labels);
  wire::WireReader reader{writer.buffer()};
  EXPECT_EQ(wire::decode_label_set(reader), labels);
  reader.require_exhausted();

  wire::WireWriter empty_writer;
  wire::encode(empty_writer, obs::LabelSet{});
  wire::WireReader empty_reader{empty_writer.buffer()};
  EXPECT_EQ(wire::decode_label_set(empty_reader), obs::LabelSet{});
}

TEST(WireTest, ConfusionRoundTrip) {
  ml::ConfusionMatrix confusion{4};
  confusion.add(0, 0);
  confusion.add(0, 3);
  confusion.add(2, 1);
  confusion.add(3, 3);
  wire::WireWriter writer;
  wire::encode(writer, confusion);
  wire::WireReader reader{writer.buffer()};
  const ml::ConfusionMatrix back = wire::decode_confusion(reader);
  reader.require_exhausted();
  ASSERT_EQ(back.num_classes(), confusion.num_classes());
  EXPECT_EQ(back.total(), confusion.total());
  for (int truth = 0; truth < 4; ++truth) {
    for (int predicted = 0; predicted < 4; ++predicted) {
      EXPECT_EQ(back.count(truth, predicted), confusion.count(truth, predicted))
          << truth << "," << predicted;
    }
  }
}

TEST(WireTest, MetricsSnapshotRoundTrip) {
  const obs::MetricsSnapshot snapshot = sample_metrics();
  wire::WireWriter writer;
  wire::encode(writer, snapshot);
  wire::WireReader reader{writer.buffer()};
  const obs::MetricsSnapshot back = wire::decode_metrics_snapshot(reader);
  reader.require_exhausted();

  // Compare through a re-encode: SeriesSnapshot has no operator==, and
  // byte equality is exactly the property the shard server needs.
  wire::WireWriter again;
  wire::encode(again, back);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(WireTest, EmptyHistogramSentinelsSurvive) {
  // An untouched histogram carries min=+inf / max=-inf. Those sentinels
  // must cross the wire bit-exactly or a folded snapshot would differ
  // from the in-process one.
  obs::MetricsSnapshot snapshot;
  obs::SeriesSnapshot series;
  series.name = "latency_us";
  series.kind = obs::MetricKind::kHistogram;
  series.histogram.upper_bounds = obs::latency_us_buckets();
  series.histogram.counts.assign(series.histogram.upper_bounds.size(), 0);
  snapshot.series.push_back(series);

  wire::WireWriter writer;
  wire::encode(writer, snapshot);
  wire::WireReader reader{writer.buffer()};
  const obs::MetricsSnapshot back = wire::decode_metrics_snapshot(reader);
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].histogram.min,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.series[0].histogram.max,
            -std::numeric_limits<double>::infinity());
}

TEST(WireTest, WindowedSnapshotRoundTrip) {
  const obs::WindowedSnapshot snapshot = sample_windows();
  wire::WireWriter writer;
  wire::encode(writer, snapshot);
  wire::WireReader reader{writer.buffer()};
  const obs::WindowedSnapshot back = wire::decode_windowed_snapshot(reader);
  reader.require_exhausted();
  wire::WireWriter again;
  wire::encode(again, back);
  EXPECT_EQ(again.buffer(), writer.buffer());
}

TEST(WireTest, EpochScoreRoundTrip) {
  const attack::adaptive::EpochScore score = sample_epoch();
  wire::WireWriter writer;
  wire::encode(writer, score);
  wire::WireReader reader{writer.buffer()};
  const attack::adaptive::EpochScore back = wire::decode_epoch_score(reader);
  reader.require_exhausted();
  EXPECT_EQ(back.epoch, score.epoch);
  EXPECT_EQ(back.start.count_us(), score.start.count_us());
  EXPECT_EQ(back.end.count_us(), score.end.count_us());
  EXPECT_EQ(back.windows, score.windows);
  EXPECT_EQ(back.labels_correct, score.labels_correct);
  EXPECT_EQ(back.labels_assigned, score.labels_assigned);
  EXPECT_EQ(back.training_rows, score.training_rows);
  EXPECT_EQ(back.refitted, score.refitted);
  EXPECT_EQ(back.confusion.count(1, 2), 1u);
  EXPECT_EQ(back.static_confusion.count(2, 2), 1u);
}

TEST(WireTest, CampaignRangeRoundTrip) {
  const CampaignRangeOutcome outcome = sample_campaign_range();
  const std::vector<std::uint8_t> bytes = wire::encode_campaign_range(outcome);
  const CampaignRangeOutcome back = wire::decode_campaign_range(bytes);
  EXPECT_EQ(back.begin, outcome.begin);
  EXPECT_EQ(back.end, outcome.end);
  ASSERT_EQ(back.cells.size(), outcome.cells.size());
  EXPECT_EQ(back.cells[0].evaluation.defense_name, "OR");
  EXPECT_EQ(back.cells[0].evaluation.mean_accuracy, 37.5);
  EXPECT_EQ(back.cells[1].shard, 1u);
  EXPECT_EQ(wire::encode_campaign_range(back), bytes);
}

TEST(WireTest, EmptyCampaignRangeRoundTrip) {
  // A zero-cell range (the pre-fork warm-up trick and the degenerate
  // single-cell-grid split both produce these) must round-trip too.
  const CampaignRangeOutcome empty;
  const std::vector<std::uint8_t> bytes = wire::encode_campaign_range(empty);
  const CampaignRangeOutcome back = wire::decode_campaign_range(bytes);
  EXPECT_EQ(back.begin, 0u);
  EXPECT_EQ(back.end, 0u);
  EXPECT_TRUE(back.cells.empty());
  EXPECT_TRUE(back.metrics.series.empty());
  EXPECT_TRUE(back.windows.series.empty());
  EXPECT_EQ(wire::encode_campaign_range(back), bytes);
}

TEST(WireTest, AdaptiveRangeRoundTrip) {
  const AdaptiveRangeOutcome outcome = sample_adaptive_range();
  const std::vector<std::uint8_t> bytes = wire::encode_range(outcome);
  const AdaptiveRangeOutcome back =
      wire::decode_range<AdaptiveRangeOutcome>(bytes);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].flow_count, 12u);
  ASSERT_EQ(back.cells[0].epochs.size(), 1u);
  EXPECT_EQ(back.cells[0].epochs[0].training_rows, 37u);
  EXPECT_EQ(wire::encode_range(back), bytes);
}

TEST(WireTest, TuningRangeRoundTrip) {
  const core::tuning::TuningRangeOutcome outcome = sample_tuning_range();
  const std::vector<std::uint8_t> bytes = wire::encode_range(outcome);
  const core::tuning::TuningRangeOutcome back =
      wire::decode_range<core::tuning::TuningRangeOutcome>(bytes);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].streaming.packets, 1000u);
  EXPECT_EQ(back.cells[0].streaming.max_queueing_delay.count_us(), 900);
  EXPECT_EQ(back.cells[0].access_delay_us,
            (std::vector<double>{1.5, 2.5, 100.0}));
  EXPECT_EQ(back.cells[0].frames_dropped, 2u);
  EXPECT_EQ(wire::encode_range(back), bytes);
}

// ------------------------------------------------------------------ frames

TEST(WireTest, FrameHeaderRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kWorkOrder, payload);
  ASSERT_EQ(frame.size(), wire::kFrameHeaderSize + payload.size());
  const wire::FrameHeader header = wire::decode_frame_header(
      std::span{frame}.first(wire::kFrameHeaderSize));
  EXPECT_EQ(header.type, wire::FrameType::kWorkOrder);
  EXPECT_EQ(header.length, payload.size());
}

TEST(WireTest, BadMagicRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  frame[0] ^= 0xFF;
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      wire::WireError);
}

TEST(WireTest, VersionMismatchRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  frame[4] = static_cast<std::uint8_t>(wire::kVersion + 1);  // version lives
  frame[5] = 0;                                              // at bytes 4-5
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      wire::WireError);
}

TEST(WireTest, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  frame[6] = 0x2A;  // type lives at bytes 6-7
  frame[7] = 0;
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      wire::WireError);
  frame[6] = 0;  // type 0 is below the valid range too
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      wire::WireError);
}

TEST(WireTest, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  for (std::size_t len = 0; len < wire::kFrameHeaderSize; ++len) {
    EXPECT_THROW(
        (void)wire::decode_frame_header(std::span{frame}.first(len)),
        wire::WireError)
        << "header prefix of " << len << " bytes parsed";
  }
}

TEST(WireTest, TruncatedWorkOrderRejected) {
  // Truncations at every length are rejected, never misparsed — the same
  // sweep tests/net_test.cc runs over the config protocol.
  const std::vector<std::uint8_t> payload =
      wire::encode_work_order(sample_order());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + len);
    EXPECT_THROW((void)wire::decode_work_order(truncated), wire::WireError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(WireTest, TruncatedCampaignRangeRejected) {
  const std::vector<std::uint8_t> payload =
      wire::encode_campaign_range(sample_campaign_range());
  // The sweep over a multi-kilobyte payload would be quadratic; stepping
  // by a prime covers every field boundary class without the cost.
  for (std::size_t len = 0; len < payload.size(); len += 13) {
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + len);
    EXPECT_THROW((void)wire::decode_campaign_range(truncated), wire::WireError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> payload = wire::encode_work_order(sample_order());
  payload.push_back(0x00);
  EXPECT_THROW((void)wire::decode_work_order(payload), wire::WireError);
}

TEST(WireTest, ImpossibleLengthRejected) {
  // A corrupt element count larger than the bytes that remain must be
  // rejected up front, not trusted into a giant allocation.
  wire::WireWriter writer;
  writer.u64(std::numeric_limits<std::uint64_t>::max());
  wire::WireReader reader{writer.buffer()};
  EXPECT_THROW((void)reader.length(), wire::WireError);
}

TEST(WireTest, ImpossibleConfusionShapeRejected) {
  // classes=0 and a quadratic cell count that cannot fit are both
  // malformed shapes, not allocation requests.
  wire::WireWriter zero;
  zero.u32(0);
  wire::WireReader zero_reader{zero.buffer()};
  EXPECT_THROW((void)wire::decode_confusion(zero_reader), wire::WireError);

  wire::WireWriter huge;
  huge.u32(0x10000);  // 2^32 cells of 8 bytes each cannot follow
  huge.u64(0);
  wire::WireReader huge_reader{huge.buffer()};
  EXPECT_THROW((void)wire::decode_confusion(huge_reader), wire::WireError);
}

}  // namespace
