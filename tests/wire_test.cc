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
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "core/tuning/tuner.h"
#include "eval/defense_factory.h"
#include "mac/crypto.h"
#include "mac/mac_address.h"
#include "net/config_protocol.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "runtime/wire.h"
#include "util/time.h"

namespace {

using namespace reshape;
using namespace reshape::runtime;

// ---------------------------------------------------------------- fixtures

constexpr int kApps = static_cast<int>(traffic::kAppCount);

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
  obs::MetricsSnapshot snapshot;  // sorted by (name, labels)

  obs::SeriesSnapshot histogram;
  histogram.name = "campaign_cell_latency_us";
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.histogram.upper_bounds = {10.0, 100.0, 1000.0};
  histogram.histogram.counts = {1, 2, 3, 0};
  histogram.histogram.count = 6;
  histogram.histogram.sum = 1234.5;
  histogram.histogram.min = 4.0;
  histogram.histogram.max = 900.0;
  snapshot.series.push_back(histogram);

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
  score.confusion = ml::ConfusionMatrix{kApps};
  score.confusion.add(0, 0);
  score.confusion.add(1, 2);
  score.static_confusion = ml::ConfusionMatrix{kApps};
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
    wire::WorkOrder order;
    obs::TelemetryConfig& config = order.telemetry;
    config.metrics = (bits & 1) != 0;
    config.profiling = (bits & 2) != 0;
    config.tracing = (bits & 4) != 0;
    config.windowed = (bits & 8) != 0;
    config.privacy = (bits & 16) != 0;
    config.privacy_pairs = (bits & 32) != 0;
    EXPECT_EQ(
        wire::decode_work_order(wire::encode_work_order(order)).telemetry,
        config);
  }
}

TEST(WireTest, LabelSetRoundTrip) {
  obs::LabelSet labels;
  labels.set("defense", "OR");
  labels.set("scenario", "dense-wlan");
  labels.set("shard", "3");
  EXPECT_EQ(wire::decode<obs::LabelSet>(wire::encode(labels)), labels);
  EXPECT_EQ(wire::decode<obs::LabelSet>(wire::encode(obs::LabelSet{})),
            obs::LabelSet{});
}

TEST(WireTest, ConfusionRoundTrip) {
  ml::ConfusionMatrix confusion{kApps};
  confusion.add(0, 0);
  confusion.add(0, 3);
  confusion.add(2, 1);
  confusion.add(3, 3);
  attack::adaptive::EpochScore score = sample_epoch();
  score.confusion = confusion;
  const ml::ConfusionMatrix back =
      wire::decode<attack::adaptive::EpochScore>(wire::encode(score))
          .confusion;
  ASSERT_EQ(back.num_classes(), confusion.num_classes());
  EXPECT_EQ(back.total(), confusion.total());
  for (int truth = 0; truth < kApps; ++truth) {
    for (int predicted = 0; predicted < kApps; ++predicted) {
      EXPECT_EQ(back.count(truth, predicted), confusion.count(truth, predicted))
          << truth << "," << predicted;
    }
  }
}

TEST(WireTest, MetricsSnapshotRoundTrip) {
  const obs::MetricsSnapshot snapshot = sample_metrics();
  const std::vector<std::uint8_t> bytes = wire::encode(snapshot);
  const obs::MetricsSnapshot back = wire::decode<obs::MetricsSnapshot>(bytes);

  // Compare through a re-encode: SeriesSnapshot has no operator==, and
  // byte equality is exactly the property the shard server needs.
  EXPECT_EQ(wire::encode(back), bytes);
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
  series.histogram.counts.assign(series.histogram.upper_bounds.size() + 1, 0);
  snapshot.series.push_back(series);

  const obs::MetricsSnapshot back =
      wire::decode<obs::MetricsSnapshot>(wire::encode(snapshot));
  ASSERT_EQ(back.series.size(), 1u);
  EXPECT_EQ(back.series[0].histogram.min,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(back.series[0].histogram.max,
            -std::numeric_limits<double>::infinity());
}

TEST(WireTest, WindowedSnapshotRoundTrip) {
  const obs::WindowedSnapshot snapshot = sample_windows();
  const std::vector<std::uint8_t> bytes = wire::encode(snapshot);
  const obs::WindowedSnapshot back = wire::decode<obs::WindowedSnapshot>(bytes);
  EXPECT_EQ(wire::encode(back), bytes);
}

TEST(WireTest, EpochScoreRoundTrip) {
  const attack::adaptive::EpochScore score = sample_epoch();
  const attack::adaptive::EpochScore back =
      wire::decode<attack::adaptive::EpochScore>(wire::encode(score));
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
      util::ByteError);
}

TEST(WireTest, VersionMismatchRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  frame[4] = static_cast<std::uint8_t>(wire::kVersion + 1);  // version lives
  frame[5] = 0;                                              // at bytes 4-5
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      util::ByteError);
}

TEST(WireTest, UnknownFrameTypeRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  frame[6] = 0x2A;  // type lives at bytes 6-7
  frame[7] = 0;
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      util::ByteError);
  frame[6] = 0;  // type 0 is below the valid range too
  EXPECT_THROW(
      (void)wire::decode_frame_header(
          std::span{frame}.first(wire::kFrameHeaderSize)),
      util::ByteError);
}

TEST(WireTest, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kShutdown, {});
  for (std::size_t len = 0; len < wire::kFrameHeaderSize; ++len) {
    EXPECT_THROW(
        (void)wire::decode_frame_header(std::span{frame}.first(len)),
        util::ByteError)
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
    EXPECT_THROW((void)wire::decode_work_order(truncated), util::ByteError)
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
    EXPECT_THROW((void)wire::decode_campaign_range(truncated), util::ByteError)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(WireTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> payload = wire::encode_work_order(sample_order());
  payload.push_back(0x00);
  EXPECT_THROW((void)wire::decode_work_order(payload), util::ByteError);
}

TEST(WireTest, ImpossibleLengthRejected) {
  // A corrupt element count larger than the bytes that remain must be
  // rejected up front, not trusted into a giant allocation.
  util::ByteWriter writer;
  writer.u64(std::numeric_limits<std::uint64_t>::max());
  util::ByteReader reader{writer.buffer()};
  EXPECT_THROW((void)reader.length(), util::ByteError);
}

TEST(WireTest, ImpossibleConfusionShapeRejected) {
  // classes=0 and a quadratic cell count that cannot fit are both
  // malformed shapes, not allocation requests. An epoch score's
  // confusion follows its four 8-byte fields.
  const auto epoch_with_classes = [](std::uint32_t classes) {
    util::ByteWriter writer;
    for (int field = 0; field < 4; ++field) {
      writer.u64(0);
    }
    writer.u32(classes);
    writer.u64(0);
    return writer.take();
  };
  EXPECT_THROW((void)wire::decode<attack::adaptive::EpochScore>(
                   epoch_with_classes(0)),
               util::ByteError);
  // 2^32 cells of 8 bytes each cannot follow
  EXPECT_THROW((void)wire::decode<attack::adaptive::EpochScore>(
                   epoch_with_classes(0x10000)),
               util::ByteError);
}

// ------------------------------------------------- replies the fold refuses
//
// Decode rejects what a coordinator's fold could not merge, so a hostile
// worker's reply becomes a worker failure instead of an exception (or an
// out-of-bounds read) inside the fold.

TEST(WireTest, ForeignConfusionShapeRejected) {
  attack::adaptive::EpochScore score = sample_epoch();
  score.confusion = ml::ConfusionMatrix{2};
  EXPECT_THROW((void)wire::decode<attack::adaptive::EpochScore>(
                   wire::encode(score)),
               util::ByteError);
  CampaignRangeOutcome outcome = sample_campaign_range();
  outcome.cells[1].evaluation.confusion = ml::ConfusionMatrix{kApps + 1};
  EXPECT_THROW((void)wire::decode_campaign_range(wire::encode_range(outcome)),
               util::ByteError);
}

TEST(WireTest, MalformedHistogramRejected) {
  const auto decode_with = [](const obs::HistogramData& histogram) {
    obs::SeriesSnapshot series;
    series.name = "latency_us";
    series.kind = obs::MetricKind::kHistogram;
    series.histogram = histogram;
    obs::MetricsSnapshot snapshot;
    snapshot.series.push_back(series);
    return wire::decode<obs::MetricsSnapshot>(wire::encode(snapshot));
  };
  obs::HistogramData histogram;
  histogram.upper_bounds = {1.0, 2.0};
  histogram.counts = {0, 0, 0};
  EXPECT_NO_THROW((void)decode_with(histogram));

  histogram.counts = {0, 0};  // no overflow bucket: merge would read past it
  EXPECT_THROW((void)decode_with(histogram), util::ByteError);
  histogram.counts = {0, 0, 0, 0};
  EXPECT_THROW((void)decode_with(histogram), util::ByteError);
  histogram.counts = {0, 0, 0};
  histogram.upper_bounds = {2.0, 2.0};
  EXPECT_THROW((void)decode_with(histogram), util::ByteError);
  histogram.upper_bounds = {std::numeric_limits<double>::quiet_NaN(), 2.0};
  EXPECT_THROW((void)decode_with(histogram), util::ByteError);

  // A counter or gauge series carries no buckets to merge.
  obs::MetricsSnapshot counter;
  counter.series.emplace_back().name = "cells_total";
  EXPECT_NO_THROW(
      (void)wire::decode<obs::MetricsSnapshot>(wire::encode(counter)));
}

TEST(WireTest, UnsortedSeriesRejected) {
  obs::MetricsSnapshot metrics = sample_metrics();
  std::swap(metrics.series[0], metrics.series[1]);
  EXPECT_THROW(
      (void)wire::decode<obs::MetricsSnapshot>(wire::encode(metrics)),
      util::ByteError);
  metrics.series[1] = metrics.series[0];  // a duplicate key
  EXPECT_THROW(
      (void)wire::decode<obs::MetricsSnapshot>(wire::encode(metrics)),
      util::ByteError);

  obs::WindowedSnapshot windows = sample_windows();
  windows.series.push_back(windows.series.front());
  EXPECT_THROW(
      (void)wire::decode<obs::WindowedSnapshot>(wire::encode(windows)),
      util::ByteError);
}

TEST(WireTest, NonAscendingWindowPointsRejected) {
  obs::WindowedSnapshot windows = sample_windows();
  std::vector<obs::WindowPoint>& points = windows.series.front().points;
  std::swap(points.front(), points.back());
  EXPECT_THROW(
      (void)wire::decode<obs::WindowedSnapshot>(wire::encode(windows)),
      util::ByteError);
  points.back() = points.front();  // a repeated window index
  EXPECT_THROW(
      (void)wire::decode<obs::WindowedSnapshot>(wire::encode(windows)),
      util::ByteError);
}

TEST(WireTest, UnsortedAccessDelaysRejected) {
  // The tuner's fold merges sorted samples and reads nearest-rank
  // percentiles: a cell must carry finite, non-negative delays in
  // non-descending order.
  const auto decode_with = [](std::vector<double> delays) {
    core::tuning::TuningRangeOutcome outcome = sample_tuning_range();
    outcome.cells.front().access_delay_us = std::move(delays);
    return wire::decode_range<core::tuning::TuningRangeOutcome>(
        wire::encode_range(outcome));
  };
  EXPECT_NO_THROW((void)decode_with({}));
  EXPECT_NO_THROW((void)decode_with({0.0, 2.5, 2.5, 100.0}));
  EXPECT_THROW((void)decode_with({100.0, 2.5, 1.5}), util::ByteError);
  EXPECT_THROW((void)decode_with({-1.0, 2.5}), util::ByteError);
  EXPECT_THROW(
      (void)decode_with({1.5, std::numeric_limits<double>::quiet_NaN()}),
      util::ByteError);
  EXPECT_THROW(
      (void)decode_with({1.5, std::numeric_limits<double>::infinity()}),
      util::ByteError);
}

TEST(WireTest, ReplyCheckMatchesTheOrder) {
  CampaignRangeOutcome reply = sample_campaign_range();
  wire::WorkOrder order;
  order.begin = reply.begin;
  order.end = reply.end;
  order.telemetry.window = util::Duration::microseconds(reply.windows.window_us);
  EXPECT_NO_THROW(wire::check_reply(reply, order));

  wire::WorkOrder shifted = order;
  ++shifted.begin;
  ++shifted.end;
  EXPECT_THROW(wire::check_reply(reply, shifted), util::ByteError);

  CampaignRangeOutcome short_reply = reply;
  short_reply.cells.pop_back();
  EXPECT_THROW(wire::check_reply(short_reply, order), util::ByteError);

  // Windows of another length could not merge with the other ranges'.
  wire::WorkOrder other_window = order;
  other_window.telemetry.window = util::Duration::seconds(60.0);
  EXPECT_THROW(wire::check_reply(reply, other_window), util::ByteError);
  // ...but a reply without windowed series has nothing to merge.
  reply.windows = obs::WindowedSnapshot{};
  EXPECT_NO_THROW(wire::check_reply(reply, other_window));
}

// --------------------------------------------------------------- byte pins
//
// The round trips above pass for any layout the encoder and decoder
// agree on — a field swapped on both sides included. These digests pin
// the bytes themselves: every frame header, a work order, hand-built
// range outcomes of all three engines covering every field, one real
// run_range per engine, and the three sealed handshake bodies (whose
// sizes set airtime in the live simulation). A digest changes only when
// the wire format does, and the wire format changes only with kVersion.

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash = (hash ^ byte) * 0x100000001B3ULL;
  }
  return hash;
}

void expect_pinned(std::span<const std::uint8_t> bytes, std::uint64_t expected,
                   std::string_view what) {
  const std::uint64_t digest = fnv1a(bytes);
  EXPECT_EQ(digest, expected)
      << what << ": digest 0x" << std::hex << digest << std::dec << " over "
      << bytes.size() << " bytes";
}

ml::ConfusionMatrix pin_confusion(int salt) {
  ml::ConfusionMatrix confusion{kApps};
  for (int i = 0; i < kApps; ++i) {
    for (int k = 0; k <= (i + salt) % 3; ++k) {
      confusion.add(i, (i * salt + k) % kApps);
    }
  }
  return confusion;
}

obs::MetricsSnapshot pin_metrics() {
  obs::MetricsSnapshot snapshot;  // sorted by (name, labels)

  obs::SeriesSnapshot counter;
  counter.name = "a_cells_total";
  counter.labels.set("cell", "0");
  counter.labels.set("defense", "OR");
  counter.kind = obs::MetricKind::kCounter;
  counter.counter = 42;
  snapshot.series.push_back(counter);

  obs::SeriesSnapshot gauge;
  gauge.name = "b_delay_us_max";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.gauge = -3.5;
  snapshot.series.push_back(gauge);

  obs::SeriesSnapshot histogram;
  histogram.name = "c_latency_us";
  histogram.labels.set("cell", "1");
  histogram.kind = obs::MetricKind::kHistogram;
  histogram.histogram.upper_bounds = {10.0, 100.0, 1000.0};
  histogram.histogram.counts = {1, 2, 3, 4};
  histogram.histogram.count = 10;
  histogram.histogram.sum = 1234.5;
  histogram.histogram.min = 4.0;
  histogram.histogram.max = 5000.0;
  snapshot.series.push_back(histogram);

  // Untouched: the ±inf min/max sentinels cross the wire as their bits.
  obs::SeriesSnapshot empty;
  empty.name = "d_empty_us";
  empty.kind = obs::MetricKind::kHistogram;
  empty.histogram.upper_bounds = {1.0, 2.0};
  empty.histogram.counts = {0, 0, 0};
  snapshot.series.push_back(empty);

  obs::SeriesSnapshot overflow_only;
  overflow_only.name = "e_overflow_only";
  overflow_only.kind = obs::MetricKind::kHistogram;
  overflow_only.histogram.counts = {7};
  overflow_only.histogram.count = 7;
  overflow_only.histogram.sum = 70.0;
  overflow_only.histogram.min = 9.0;
  overflow_only.histogram.max = 11.0;
  snapshot.series.push_back(overflow_only);
  return snapshot;
}

obs::WindowedSnapshot pin_windows() {
  obs::WindowedSnapshot snapshot;  // sorted by (name, labels)
  snapshot.window_us = 2'500'000;
  obs::SeriesWindows offered;
  offered.name = "offered_bytes";
  offered.labels.set("shard", "0");
  offered.points.push_back(
      {.window = 0, .value = {.count = 3, .sum = 4096.0, .min = 512.0,
                              .max = 2048.0}});
  offered.points.push_back(
      {.window = 7, .value = {.count = 1, .sum = 64.0, .min = 64.0,
                              .max = 64.0}});
  snapshot.series.push_back(offered);
  obs::SeriesWindows quiet;
  quiet.name = "offered_bytes";
  quiet.labels.set("shard", "1");
  snapshot.series.push_back(quiet);
  obs::SeriesWindows leak;
  leak.name = "privacy_leak";
  leak.points.push_back({.window = -2, .value = {}});
  snapshot.series.push_back(leak);
  return snapshot;
}

attack::adaptive::EpochScore pin_epoch(int salt) {
  attack::adaptive::EpochScore score;
  score.epoch = static_cast<std::size_t>(salt);
  score.start = util::TimePoint::from_microseconds(1'000'000 * salt);
  score.end = util::TimePoint::from_microseconds(1'000'000 * salt + 999'999);
  score.windows = 5 + static_cast<std::size_t>(salt);
  score.confusion = pin_confusion(salt);
  score.static_confusion = pin_confusion(salt + 1);
  score.labels_correct = 9;
  score.labels_assigned = 11;
  score.training_rows = 37;
  score.refitted = salt % 2 == 1;
  return score;
}

CampaignRangeOutcome pin_campaign_range() {
  CampaignRangeOutcome outcome;
  outcome.begin = 2;
  outcome.end = 4;
  outcome.cells.resize(2);
  CellResult& cell = outcome.cells[0];
  cell.defense_index = 1;
  cell.scenario_index = 3;
  cell.shard = 5;
  cell.session_count = 6;
  cell.evaluation.defense_name = "OR";
  cell.evaluation.classifier_name = "svm";
  cell.evaluation.confusion = pin_confusion(2);
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    cell.evaluation.accuracy[i] = 10.0 * static_cast<double>(i) + 0.5;
    cell.evaluation.false_positive[i] = 1.0 / static_cast<double>(i + 3);
    cell.evaluation.overhead[i] = -static_cast<double>(i);
  }
  cell.evaluation.mean_accuracy = 37.5;
  cell.evaluation.mean_false_positive = 7.0;
  cell.evaluation.mean_overhead = 12.5;
  outcome.metrics = pin_metrics();
  outcome.windows = pin_windows();
  return outcome;
}

AdaptiveRangeOutcome pin_adaptive_range() {
  AdaptiveRangeOutcome outcome;
  outcome.begin = 0;
  outcome.end = 2;
  outcome.cells.resize(2);  // the second cell keeps an empty epoch list
  AdaptiveCellResult& cell = outcome.cells[0];
  cell.defense_index = 1;
  cell.scenario_index = 2;
  cell.shard = 3;
  cell.session_count = 4;
  cell.flow_count = 12;
  cell.epochs = {pin_epoch(1), pin_epoch(2)};
  outcome.windows = pin_windows();
  return outcome;
}

core::tuning::TuningRangeOutcome pin_tuning_range() {
  core::tuning::TuningRangeOutcome outcome;
  outcome.begin = 5;
  outcome.end = 7;
  outcome.cells.resize(2);  // the second cell keeps its empty vectors
  core::tuning::CandidateShardOutcome& cell = outcome.cells[0];
  cell.sessions = 4;
  cell.flows = 16;
  cell.epochs = {pin_epoch(3)};
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
  outcome.metrics = pin_metrics();
  return outcome;
}

TEST(WirePinTest, FrameHeaders) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  expect_pinned(wire::encode_frame(wire::FrameType::kWorkOrder, payload),
                0xC7FCB196CEFED0C0ULL, "kWorkOrder");
  expect_pinned(wire::encode_frame(wire::FrameType::kRange, payload),
                0x2B2DFDF8A6ED6B95ULL, "kRange");
  expect_pinned(wire::encode_frame(wire::FrameType::kShutdown, {}),
                0x785B6279CFC64007ULL, "kShutdown");
  expect_pinned(wire::encode_frame(wire::FrameType::kError, payload),
                0x6AF367E1D896BEA1ULL, "kError");
}

TEST(WirePinTest, WorkOrder) {
  wire::WorkOrder order;
  order.job = "campaign";
  order.begin = 3;
  order.end = 9;
  order.threads = 2;
  order.telemetry = obs::TelemetryConfig::enabled();
  order.telemetry.privacy_pairs = true;
  order.telemetry.window = util::Duration::seconds(2.5);
  expect_pinned(wire::encode_work_order(order),
                0x853230132E03C8BCULL, "work order");
}

TEST(WirePinTest, HandBuiltRanges) {
  expect_pinned(wire::encode_range(pin_campaign_range()), 0x1CC9CFB752B565EDULL,
                "campaign range");
  expect_pinned(wire::encode_range(pin_adaptive_range()), 0xCB7DE2B9AD41B23FULL,
                "adaptive range");
  expect_pinned(wire::encode_range(pin_tuning_range()), 0x4BCD05EEBC0E4091ULL,
                "tuning range");
}

obs::TelemetryConfig pin_telemetry() {
  obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  return config;
}

TEST(WirePinTest, RealCampaignRange) {
  runtime::CampaignSpec spec;
  spec.seed = 4242;
  spec.training.seed = 777;
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = util::Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = util::Duration::seconds(30.0);
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  runtime::CampaignEngine engine{spec};
  engine.set_telemetry(pin_telemetry());
  expect_pinned(wire::encode_range(engine.run_range(0, 1, 1)),
                0x6682A7D25BCF9432ULL, "campaign run_range");
}

TEST(WirePinTest, RealAdaptiveRange) {
  runtime::AdaptiveCampaignSpec spec;
  spec.seed = 0xADA;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  runtime::AdaptiveCampaignEngine engine{spec};
  engine.set_telemetry(pin_telemetry());
  expect_pinned(wire::encode_range(engine.run_range(0, 1, 1)),
                0x7F4822A28A7281D2ULL, "adaptive run_range");
}

TEST(WirePinTest, RealTuningRange) {
  core::tuning::TunerSpec spec;
  spec.seed = 0x7C7E5;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(2, util::Duration::seconds(30.0));
  spec.streaming.bitrate_mbps = 24.0;
  spec.shards = 1;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  core::tuning::ParameterTuner engine{spec};
  engine.set_telemetry(pin_telemetry());
  expect_pinned(wire::encode_range(engine.run_range(0, 1, 1)),
                0x6829C891E55DD961ULL, "tuning run_range");
}

TEST(WirePinTest, SealedHandshakeBodies) {
  const mac::StreamCipher cipher{
      mac::SymmetricKey{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL}};
  constexpr std::uint64_t kCipherNonce = 0x5EA1ED;

  net::ConfigRequest request;
  request.physical_address = mac::MacAddress::from_u64(0x02AABBCCDDEEULL);
  request.nonce = 0x1122334455667788ULL;
  request.requested_interfaces = 3;
  expect_pinned(net::encode_request(request, cipher, kCipherNonce),
                0xAFE254D01366970FULL, "request");

  net::ConfigResponse response;
  response.nonce = request.nonce;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    response.virtual_addresses.push_back(
        mac::MacAddress::from_u64(0x020000000000ULL + i));
  }
  expect_pinned(net::encode_response(response, cipher, kCipherNonce),
                0xEA44D0B601F093FAULL, "response");

  net::TunedConfigUpdate update;
  update.nonce = 0xBEEF;
  update.config = core::tuning::TunedConfiguration::identity(
      "pinned", core::SizeRanges::paper_l5());
  update.config.pad_to[0] = update.config.range_bounds[0];
  update.config.pad_to[2] = update.config.range_bounds[2];
  for (std::size_t i = 0; i < update.config.interfaces; ++i) {
    update.virtual_addresses.push_back(
        mac::MacAddress::from_u64(0x020000000100ULL + i));
  }
  expect_pinned(net::encode_tuned_config(update, cipher, kCipherNonce),
                0xE1E3B3D6A4BCB277ULL, "tuned config");
}

}  // namespace
