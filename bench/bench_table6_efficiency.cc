// Reproduces Table VI: efficiency comparison — packet padding and traffic
// morphing versus traffic reshaping, against a *timing-feature* attack
// (the paper's point: size-only defenses leave interarrival intact).
//
// Expected shape (paper): padding (to 1576 B) costs ~121% extra bytes and
// morphing ~39%, yet the timing attacker still scores ~71%; OR scores
// ~44% with exactly 0% byte overhead.
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "core/morphing.h"
#include "core/online/streaming_reshaper.h"
#include "eval/defense_factory.h"
#include "traffic/generator.h"

namespace {

using namespace reshape;

/// One app's traffic through the online pipeline: the per-packet latency
/// the live deployment adds on top of the byte overhead Table VI reports.
core::online::StreamingStats online_stats(const traffic::Trace& trace,
                                          core::ReshapingDefense defense) {
  core::online::StreamingConfig config;  // 54 Mbit/s, 20 ms budget
  config.record_streams = false;
  core::online::StreamingReshaper pipeline{std::move(defense), config};
  for (const traffic::PacketRecord& record : trace.records()) {
    (void)pipeline.push(record);
  }
  return pipeline.stats();
}

/// Per-packet added latency of the in-sim (streaming) path, per defense.
/// Returns true when reshaping is no slower than padding on the mean.
bool report_online_latency(eval::ExperimentHarness& harness) {
  std::cout << "\nOnline path (StreamingReshaper, 54 Mbit/s radio, 20 ms "
               "budget) — per-packet added latency:\n\n";
  util::TablePrinter table{{"App", "Pad lat (us)", "Pad miss%",
                            "Morph lat (us)", "OR lat (us)",
                            "OR max (us)"}};
  double pad_mean = 0.0;
  double morph_mean = 0.0;
  double or_mean = 0.0;
  std::size_t morphed_apps = 0;
  for (const traffic::AppType app : traffic::kAllApps) {
    const traffic::Trace trace = traffic::generate_trace(
        app, util::Duration::seconds(90.0), 0x0461 + traffic::app_index(app));

    const auto padded = online_stats(
        trace, core::ReshapingDefense::shaping(
                   std::make_unique<core::PaddingShaper>(mac::kMaxFrameBytes)));

    // Morphing, streaming form; the paper leaves downloading/uploading
    // unmorphed, so those rows show no morphing latency at all.
    std::unique_ptr<core::PacketShaper> morph_shaper;
    if (const auto target = core::paper_morph_target(app)) {
      morph_shaper = std::make_unique<core::MorphingDefense>(
          *target, harness.size_profile(*target),
          util::Rng{0x1106 + traffic::app_index(app)});
    }
    const bool app_is_morphed = morph_shaper != nullptr;
    const auto morphed =
        app_is_morphed
            ? online_stats(trace, core::ReshapingDefense::shaping(
                                      std::move(morph_shaper)))
            : core::online::StreamingStats{};

    const auto reshaped = online_stats(
        trace, core::ReshapingDefense{
                   std::make_unique<core::OrthogonalScheduler>(
                       core::OrthogonalScheduler::identity(
                           core::SizeRanges::paper_default()))});

    const double miss_pct =
        padded.packets == 0
            ? 0.0
            : 100.0 * static_cast<double>(padded.deadline_misses) /
                  static_cast<double>(padded.packets);
    table.add_row(
        {std::string{traffic::short_name(app)},
         util::TablePrinter::fmt(padded.mean_queueing_delay_us()),
         util::TablePrinter::fmt(miss_pct),
         app_is_morphed
             ? util::TablePrinter::fmt(morphed.mean_queueing_delay_us())
             : std::string{"-"},
         util::TablePrinter::fmt(reshaped.mean_queueing_delay_us()),
         util::TablePrinter::fmt(
             static_cast<double>(reshaped.max_queueing_delay.count_us()))});
    pad_mean += padded.mean_queueing_delay_us();
    if (app_is_morphed) {
      morph_mean += morphed.mean_queueing_delay_us();
      ++morphed_apps;
    }
    or_mean += reshaped.mean_queueing_delay_us();
  }
  const auto n = static_cast<double>(traffic::kAppCount);
  table.add_row({"Mean", util::TablePrinter::fmt(pad_mean / n), "",
                 util::TablePrinter::fmt(
                     morph_mean / static_cast<double>(morphed_apps)),
                 util::TablePrinter::fmt(or_mean / n), ""});
  table.print(std::cout);
  std::cout << "\n(reshaping adds no bytes, so its queueing is pure burst "
               "backlog; padding also pays the inflated airtime)\n";
  return or_mean <= pad_mean;
}

int run() {
  // Timing-only attacker: padding/morphing do not change interarrival.
  eval::ExperimentConfig cfg = bench::default_config(5.0);
  cfg.feature_set = features::FeatureSet::kTimingOnly;
  eval::ExperimentHarness timing_harness{cfg};
  timing_harness.train();

  const auto padded =
      timing_harness.evaluate(eval::padding_factory(), "Padding");
  const auto morphed =
      timing_harness.evaluate(eval::morphing_factory(timing_harness),
                              "Morphing");
  const auto or_timing = timing_harness.evaluate(
      eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3), "OR");

  std::cout << "Table VI reproduction — efficiency comparison (W = 5 s, "
               "timing-feature attack)\n\n";
  util::TablePrinter table{{"App", "Paper acc (%)", "Meas pad acc (%)",
                            "Meas morph acc (%)", "Paper pad ovh (%)",
                            "Meas pad ovh (%)", "Paper morph ovh (%)",
                            "Meas morph ovh (%)"}};
  for (const traffic::AppType app : traffic::kAllApps) {
    const auto i = traffic::app_index(app);
    table.add_row({std::string{traffic::short_name(app)},
                   util::TablePrinter::fmt(bench::PaperTable6::accuracy[i]),
                   util::TablePrinter::fmt(padded.accuracy[i]),
                   util::TablePrinter::fmt(morphed.accuracy[i]),
                   util::TablePrinter::fmt(bench::PaperTable6::pad_overhead[i]),
                   util::TablePrinter::fmt(padded.overhead[i]),
                   util::TablePrinter::fmt(
                       bench::PaperTable6::morph_overhead[i]),
                   util::TablePrinter::fmt(morphed.overhead[i])});
  }
  table.add_row({"Mean", util::TablePrinter::fmt(
                             bench::PaperTable6::mean_accuracy),
                 util::TablePrinter::fmt(padded.mean_accuracy),
                 util::TablePrinter::fmt(morphed.mean_accuracy),
                 util::TablePrinter::fmt(bench::PaperTable6::mean_pad_overhead),
                 util::TablePrinter::fmt(padded.mean_overhead),
                 util::TablePrinter::fmt(
                     bench::PaperTable6::mean_morph_overhead),
                 util::TablePrinter::fmt(morphed.mean_overhead)});
  table.print(std::cout);

  std::cout << "\nOR under the timing attack: mean accuracy "
            << util::TablePrinter::fmt(or_timing.mean_accuracy)
            << "% at 0% overhead (paper: 43.69% / 0%)\n";

  std::cout << "\nShape checks (paper's qualitative claims):\n";
  const auto check = [](const char* what, bool ok) {
    std::cout << "  [" << (ok ? "PASS" : "FAIL") << "] " << what << "\n";
    return ok;
  };
  const auto ovh = [](const eval::DefenseEvaluation& e, traffic::AppType a) {
    return e.overhead[traffic::app_index(a)];
  };
  using traffic::AppType;
  bool all = true;
  all &= check("padding overhead is unbearably high (mean > 60%)",
               padded.mean_overhead > 60.0);
  all &= check("morphing costs much less than padding (paper: 39 vs 121)",
               morphed.mean_overhead < 0.6 * padded.mean_overhead);
  all &= check("chatting/gaming pay the highest padding overhead "
               "(small packets; paper: 486% / 243%)",
               ovh(padded, AppType::kChatting) > 200.0 &&
                   ovh(padded, AppType::kGaming) > 120.0);
  // The paper reports ~0% for downloading (its overhead accounting, like
  // Fig. 1/Table I, is receiver-side: the data direction is already at
  // the maximum frame size). Our accounting pads both directions, so
  // downloading still pays for its TCP-ACK uplink; the preserved shape is
  // the *ordering* — bulk-transfer apps are by far the cheapest to pad.
  all &= check("bulk-transfer apps are the cheapest to pad "
               "(do/up/vo each < 1/4 of chatting's overhead)",
               ovh(padded, AppType::kDownloading) <
                       ovh(padded, AppType::kChatting) / 4.0 &&
                   ovh(padded, AppType::kUploading) <
                       ovh(padded, AppType::kChatting) / 4.0 &&
                   ovh(padded, AppType::kVideo) <
                       ovh(padded, AppType::kChatting) / 4.0);
  all &= check("timing attack still beats padding and morphing "
               "(mean acc > 55%; paper: 71.18%)",
               padded.mean_accuracy > 55.0 && morphed.mean_accuracy > 55.0);
  all &= check("OR beats both at zero overhead",
               or_timing.mean_accuracy < padded.mean_accuracy - 10.0 &&
                   or_timing.mean_accuracy < morphed.mean_accuracy - 10.0 &&
                   or_timing.mean_overhead == 0.0);

  const bool or_latency_ok = report_online_latency(timing_harness);
  all &= check("online OR adds no more queueing latency than online padding",
               or_latency_ok);
  return all ? 0 : 1;
}

}  // namespace

int main() { return run(); }
