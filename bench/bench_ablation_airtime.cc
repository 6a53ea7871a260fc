// Airtime ablation: what each defense costs the shared channel.
//
// The paper accounts overhead in bytes; the channel pays in *airtime*.
// This bench converts each defense's output into the airtime an 802.11g
// cell (54 Mbit/s) spends on it. Padding's byte overhead understates its
// channel cost on small-packet apps (every padded ACK still pays the full
// serialisation time); reshaping's airtime delta is exactly zero.
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "core/airtime.h"
#include "core/defense.h"
#include "core/morphing.h"
#include "core/scheduler.h"
#include "traffic/generator.h"
#include "util/distribution.h"

namespace {

using namespace reshape;

int run() {
  constexpr double kBitrateMbps = 54.0;
  std::cout << "Airtime ablation — channel cost per defense at "
            << kBitrateMbps << " Mbit/s\n\n";

  util::TablePrinter table{{"App", "Original util (%)", "Padding ovh (%)",
                            "Morphing ovh (%)", "OR ovh (%)"}};
  bool all = true;
  for (const traffic::AppType app : traffic::kAllApps) {
    const traffic::Trace trace = traffic::generate_trace(
        app, util::Duration::seconds(120.0),
        0xA1F + traffic::app_index(app), traffic::SessionJitter::none());
    core::NoDefense none;
    const core::AirtimeCost baseline =
        core::defense_airtime(none.apply(trace), kBitrateMbps);

    auto padding = core::ReshapingDefense::shaping(
        std::make_unique<core::PaddingShaper>());
    const core::AirtimeCost padded =
        core::defense_airtime(padding.apply(trace), kBitrateMbps);

    const auto target = core::paper_morph_target(app);
    core::AirtimeCost morphed = baseline;
    if (target) {
      const traffic::Trace profile = traffic::generate_trace(
          *target, util::Duration::seconds(60.0), 0x917,
          traffic::SessionJitter::none());
      auto morphing = core::ReshapingDefense::shaping(
          std::make_unique<core::MorphingDefense>(
              *target, util::EmpiricalDistribution{profile.sizes()},
              util::Rng{7}));
      morphed = core::defense_airtime(morphing.apply(trace), kBitrateMbps);
    }

    core::ReshapingDefense reshaping{
        core::make_scheduler(core::SchedulerKind::kOrthogonal, 3, 1)};
    const core::AirtimeCost reshaped =
        core::defense_airtime(reshaping.apply(trace), kBitrateMbps);

    table.add_row({std::string{traffic::short_name(app)},
                   util::TablePrinter::fmt(100.0 * baseline.utilisation, 2),
                   util::TablePrinter::fmt(padded.overhead_percent(baseline)),
                   util::TablePrinter::fmt(morphed.overhead_percent(baseline)),
                   util::TablePrinter::fmt(
                       reshaped.overhead_percent(baseline))});

    all &= reshaped.overhead_percent(baseline) == 0.0;
    all &= padded.overhead_percent(baseline) >= 0.0;
  }
  table.print(std::cout);

  std::cout << "\nShape checks:\n";
  const auto check = [](const char* what, bool ok) {
    std::cout << "  [" << (ok ? "PASS" : "FAIL") << "] " << what << "\n";
    return ok;
  };
  bool ok = true;
  ok &= check("reshaping adds exactly zero airtime for every app", all);
  return ok ? 0 : 1;
}

}  // namespace

int main() { return run(); }
