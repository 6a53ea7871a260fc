// The modified wireless client (§III-B).
//
// Responsibilities:
//   * initiate the encrypted configuration handshake and bring up the
//     assigned virtual MAC interfaces;
//   * uplink reshaping — pick a virtual interface per outgoing packet and
//     stamp its MAC address as the frame source (Figure 3, left);
//   * downlink reception — accept frames addressed to *any* of its
//     virtual MACs (or the physical one), translate back to the physical
//     address, and hand the payload to upper layers, keeping the whole
//     mechanism transparent above the MAC layer;
//   * tuned reconfiguration — accept an AP-pushed TunedConfigUpdate
//     (action frame, anti-replay checked) and rebuild both the virtual
//     interface set and the uplink StreamingReshaper from the pushed
//     core::tuning::TunedConfiguration.
//
// Transmission timing: the uplink StreamingReshaper's scheduled release
// times are *real* — a packet whose release time is in the future is
// deferred through the simulator and only then handed to the medium, so
// the sniffer observes defended timing (and, with a ChannelArbiter
// installed, arbitrated timing on top). Deferred release events are
// lifetime-guarded: destroying the client before the simulator drains
// simply cancels its not-yet-released frames.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/tpc.h"
#include "core/tuning/tuned_configuration.h"
#include "mac/crypto.h"
#include "mac/frame.h"
#include "mac/mac_address.h"
#include "net/virtual_interface.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace reshape::sim::channel {
struct ChannelStats;
}  // namespace reshape::sim::channel

namespace reshape::net {

/// Handshake progress of the client.
enum class ClientState : std::uint8_t {
  kAssociated,         // no virtual interfaces yet
  kAwaitingResponse,   // request sent, waiting for the AP
  kConfigured,         // virtual interfaces are up
};

/// The wireless client.
class WirelessClient : public sim::RadioListener {
 public:
  /// Attaches to the medium at `position`, tuned to `channel`, associated
  /// with the AP identified by `bssid` sharing `key`. The uplink scheduler
  /// runs inside a core::online::StreamingReshaper whose release times
  /// become actual deferred transmissions.
  WirelessClient(sim::Simulator& simulator, sim::Medium& medium,
                 sim::Position position, mac::MacAddress physical_address,
                 mac::MacAddress bssid, int channel, mac::SymmetricKey key,
                 util::Rng rng,
                 std::unique_ptr<core::Scheduler> uplink_scheduler,
                 core::online::StreamingConfig streaming = {});

  ~WirelessClient() override;
  WirelessClient(const WirelessClient&) = delete;
  WirelessClient& operator=(const WirelessClient&) = delete;

  /// Step 1 of Figure 2: requests `count` virtual interfaces (0 lets the
  /// AP decide). The response arrives asynchronously via the medium.
  void request_virtual_interfaces(std::uint32_t count);

  /// Sends `payload_bytes` of application data to the AP. With virtual
  /// interfaces configured, the reshaping scheduler chooses which virtual
  /// MAC transmits and the frame leaves at the reshaper's release time.
  void send_packet(std::uint32_t payload_bytes);

  /// Upper-layer delivery hook for downlink traffic (receives the
  /// translated *physical* source identity implicitly — payload only,
  /// since the client knows its own identity).
  void set_upper_layer_sink(std::function<void(std::uint32_t payload)> sink);

  /// Per-packet transmit power control (§V-A defense), applied to every
  /// transmission.
  void set_power_control(core::TransmitPowerControl tpc);

  /// Per-*interface* power control: each virtual interface transmits at
  /// its own (possibly randomised) power level, disguising the interfaces
  /// as distinct users at distinct distances — the §V-A proposal. The
  /// vector is indexed by virtual-interface position and must match the
  /// configured interface count; frames sent before configuration (or on
  /// the physical address) use the global control.
  void set_interface_power_controls(
      std::vector<core::TransmitPowerControl> controls);

  // RadioListener:
  void on_frame(const mac::Frame& frame, double rssi_dbm) override;

  [[nodiscard]] ClientState state() const { return state_; }
  [[nodiscard]] const mac::MacAddress& physical_address() const {
    return physical_address_;
  }
  [[nodiscard]] const std::vector<VirtualInterface>& interfaces() const {
    return interfaces_;
  }
  [[nodiscard]] std::uint64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_packets_; }
  [[nodiscard]] std::uint64_t handshake_failures() const {
    return handshake_failures_;
  }

  /// The last tuner-selected configuration applied via an AP push (the
  /// net::TunedConfigUpdate path); nullopt until one arrives. A push
  /// that *changes* the interface count drops any per-interface power
  /// controls (they are positional — there is nothing sensible to map
  /// them onto) and falls back to the global control until the caller
  /// re-establishes the §V-A disguise via
  /// set_interface_power_controls(); a same-count push keeps them.
  [[nodiscard]] const std::optional<core::tuning::TunedConfiguration>&
  tuned_configuration() const {
    return tuned_;
  }

  /// AP pushes dropped for bad decode, replayed nonce, or a mismatched
  /// address set.
  [[nodiscard]] std::uint64_t rejected_config_pushes() const {
    return rejected_config_pushes_;
  }

  /// *Modeled* cost of the uplink reshaping pipeline: per-packet queueing
  /// delay behind the StreamingReshaper's private radio model, airtime,
  /// deadline misses. When a ChannelArbiter serves this channel, prefer
  /// observed_channel_stats() — the arbitrated numbers the air actually
  /// exhibits.
  [[nodiscard]] const core::online::StreamingStats& modeled_reshaping_stats()
      const {
    return reshaper_.stats();
  }

  /// *Observed* channel-access cost of this station under arbitration:
  /// what the frames actually paid on the air (access delay, collisions,
  /// retries). nullptr when no ChannelArbiter serves this channel or the
  /// client has not transmitted yet.
  [[nodiscard]] const sim::channel::ChannelStats* observed_channel_stats()
      const;

  /// Attaches a lifecycle tracer (nullptr detaches) to the uplink
  /// reshaper; survives AP-pushed pipeline rebuilds. Data frames carry the
  /// shaped packet's trace id so the arbiter and sniffer spans join up.
  void set_packet_trace(obs::PacketTrace* trace);

 private:
  /// The client requires a scheduler even though StreamingReshaper itself
  /// accepts null (a null here would silently degrade to a single-stream
  /// identity pipeline).
  [[nodiscard]] static std::unique_ptr<core::Scheduler> checked(
      std::unique_ptr<core::Scheduler> scheduler);

  void transmit(mac::Frame frame);
  void transmit_at(mac::Frame frame, core::TransmitPowerControl& tpc,
                   util::TimePoint when);
  void handle_config_response(const mac::Frame& frame);
  void handle_tuned_config(const mac::Frame& frame);
  [[nodiscard]] bool owns_address(const mac::MacAddress& addr) const;

  sim::Simulator& simulator_;
  sim::Medium& medium_;
  sim::Position position_;
  mac::MacAddress physical_address_;
  mac::MacAddress bssid_;
  int channel_;
  mac::StreamCipher cipher_;
  mac::NonceGenerator nonce_gen_;
  core::TransmitPowerControl tpc_;
  std::vector<core::TransmitPowerControl> interface_tpc_;
  core::online::StreamingConfig streaming_;  // for pipeline rebuilds
  core::online::StreamingReshaper reshaper_;
  std::vector<VirtualInterface> interfaces_;
  std::function<void(std::uint32_t)> upper_layer_;
  ClientState state_ = ClientState::kAssociated;
  std::optional<std::uint64_t> pending_nonce_;
  std::optional<core::tuning::TunedConfiguration> tuned_;
  // AP-push nonces already honoured (anti-replay, mirroring the AP's
  // request seen-set).
  std::unordered_set<std::uint64_t> seen_push_nonces_;
  // Lifetime token for deferred release events: lambdas hold a weak_ptr
  // and no-op once the client is gone.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  std::uint16_t sequence_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t handshake_failures_ = 0;
  std::uint64_t rejected_config_pushes_ = 0;
};

}  // namespace reshape::net
