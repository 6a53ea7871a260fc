// The modified access point (§III-B).
//
// Responsibilities:
//   * answer configuration handshakes — decide I, mint virtual MAC
//     addresses from the pool, reply encrypted (Figure 2);
//   * downlink reshaping — pick a virtual interface per outgoing packet
//     with the reshaping algorithm and address the frame to that virtual
//     MAC (Figure 3, right);
//   * uplink translation — rewrite virtual source addresses back to the
//     client's unique physical address before handing packets to upper
//     layers, circumventing ARP so remote servers need no changes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/tpc.h"
#include "core/tuning/tuned_configuration.h"
#include "mac/address_pool.h"
#include "mac/crypto.h"
#include "mac/frame.h"
#include "mac/mac_address.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace reshape::sim::channel {
struct ChannelStats;
}  // namespace reshape::sim::channel

namespace reshape::net {

/// Delivery callback for packets that cleared MAC translation: the upper
/// layer always sees the client's *physical* address.
using UpperLayerSink =
    std::function<void(const mac::MacAddress& client_physical,
                       std::uint32_t payload_bytes)>;

/// AP policy knobs.
struct ApConfig {
  std::size_t default_interfaces = 3;  // I when the client lets us decide
  std::size_t max_interfaces = 8;      // resource ceiling per client
  double tx_power_dbm = 18.0;

  /// Online-pipeline knobs for per-client downlink reshaping (bitrate of
  /// the shared radio, per-packet latency budget).
  core::online::StreamingConfig streaming{};
};

/// The access point.
class AccessPoint : public sim::RadioListener {
 public:
  /// `scheduler_factory` builds one reshaping scheduler per associated
  /// client (downlink dispatch). The AP attaches itself to the medium.
  AccessPoint(sim::Simulator& simulator, sim::Medium& medium,
              sim::Position position, mac::MacAddress bssid, int channel,
              ApConfig config, util::Rng rng,
              std::function<std::unique_ptr<core::Scheduler>()>
                  scheduler_factory);

  ~AccessPoint() override;
  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  /// Registers a client (association + key establishment, out of scope of
  /// the paper's protocol, modelled as pre-shared state).
  void associate(const mac::MacAddress& client_physical,
                 mac::SymmetricKey key);

  /// Sends `payload_bytes` of application data to an associated client.
  /// If the client has virtual interfaces the reshaping scheduler picks
  /// the destination virtual MAC and the frame leaves at the client
  /// pipeline's release time (a real deferred transmission); otherwise
  /// the physical MAC is used and the frame leaves immediately. Deferred
  /// release events are lifetime-guarded: destroying the AP before the
  /// simulator drains cancels its not-yet-released frames.
  void send_to_client(const mac::MacAddress& client_physical,
                      std::uint32_t payload_bytes);

  /// Upper-layer delivery hook for uplink traffic.
  void set_upper_layer_sink(UpperLayerSink sink);

  /// Per-packet transmit power control (defaults to fixed config power).
  void set_power_control(core::TransmitPowerControl tpc);

  // RadioListener:
  void on_frame(const mac::Frame& frame, double rssi_dbm) override;

  [[nodiscard]] const mac::MacAddress& bssid() const { return bssid_; }
  [[nodiscard]] int channel() const { return channel_; }

  /// The virtual addresses currently assigned to a client (empty when the
  /// client has none).
  [[nodiscard]] std::vector<mac::MacAddress> virtual_addresses_of(
      const mac::MacAddress& client_physical) const;

  /// Reclaims a client's virtual addresses (dynamic reconfiguration /
  /// resource recycling, §III-B.1). Returns how many were reclaimed.
  std::size_t recycle(const mac::MacAddress& client_physical);

  /// Pushes a tuner-selected parameter point to an associated client:
  /// recycles its old virtual addresses, mints a fresh set sized to the
  /// configuration, rebuilds the AP-side downlink pipeline from it, and
  /// sends the encrypted update in an action frame — the client rebuilds
  /// its uplink pipeline from the same body on receipt. Requires a
  /// structurally valid `config` with interfaces <= max_interfaces.
  /// Returns false (and changes nothing) for unknown clients or address
  /// pool exhaustion.
  ///
  /// Transition window: like a handshake re-request (which also recycles
  /// before the client learns the new set), the switch is not seamless —
  /// frames already scheduled on the *old* virtual MACs in either
  /// direction are rejected at the receiver until the push propagates.
  /// Reconfigure at quiet instants; carrying live reshaper state through
  /// the switch is the ROADMAP's reshaper-state-migration item.
  bool push_tuned_configuration(const mac::MacAddress& client_physical,
                                const core::tuning::TunedConfiguration& config);

  [[nodiscard]] std::uint64_t uplink_packets() const {
    return uplink_packets_;
  }
  [[nodiscard]] std::uint64_t downlink_packets() const {
    return downlink_packets_;
  }
  [[nodiscard]] std::uint64_t handshakes_completed() const {
    return handshakes_completed_;
  }
  [[nodiscard]] std::uint64_t rejected_frames() const {
    return rejected_frames_;
  }
  [[nodiscard]] std::uint64_t tuned_pushes() const { return tuned_pushes_; }

  /// *Modeled* cost of one client's downlink reshaping pipeline (queueing
  /// delay behind the StreamingReshaper's private radio model, airtime,
  /// deadline misses); nullptr for clients the AP does not know. Each
  /// client's pipeline models the radio as its own, so under a
  /// ChannelArbiter the observed_channel_stats() numbers — one arbitrated
  /// timeline for the whole AP — supersede these.
  [[nodiscard]] const core::online::StreamingStats* modeled_reshaping_stats_of(
      const mac::MacAddress& client_physical) const;

  /// *Observed* channel-access cost of the AP station under arbitration;
  /// nullptr when no ChannelArbiter serves this channel or the AP has not
  /// transmitted yet.
  [[nodiscard]] const sim::channel::ChannelStats* observed_channel_stats()
      const;

  /// Attaches a lifecycle tracer (nullptr detaches) to every client's
  /// downlink reshaper — current and future (association and tuned-push
  /// rebuilds inherit it). Downlink data frames carry the shaped packet's
  /// trace id.
  void set_packet_trace(obs::PacketTrace* trace);

 private:
  struct ClientState {
    mac::SymmetricKey key;
    std::vector<mac::MacAddress> virtual_addresses;
    // Downlink reshaping runs through the online pipeline so the sim
    // accounts queueing delay and airtime per client.
    std::unique_ptr<core::online::StreamingReshaper> reshaper;
    // Protocol nonces already honoured for this client. A captured
    // request replayed by an attacker (who cannot forge new ciphertext)
    // must not trigger a fresh assignment round.
    std::unordered_set<std::uint64_t> seen_nonces;
  };

  void handle_config_request(const mac::Frame& frame);
  void transmit(mac::Frame frame);
  void transmit_at(mac::Frame frame, util::TimePoint when);
  [[nodiscard]] ClientState* client_of_virtual(const mac::MacAddress& addr);
  [[nodiscard]] std::size_t decide_interface_count(
      std::uint32_t requested) const;

  sim::Simulator& simulator_;
  sim::Medium& medium_;
  sim::Position position_;
  mac::MacAddress bssid_;
  int channel_;
  ApConfig config_;
  mac::AddressPool pool_;
  mac::NonceGenerator nonce_gen_;
  core::TransmitPowerControl tpc_;
  std::function<std::unique_ptr<core::Scheduler>()> scheduler_factory_;
  std::unordered_map<mac::MacAddress, ClientState> clients_;
  std::unordered_map<mac::MacAddress, mac::MacAddress> virtual_to_physical_;
  obs::PacketTrace* trace_ = nullptr;  // not owned; applied to reshapers
  UpperLayerSink upper_layer_;
  // Lifetime token for deferred release events (see WirelessClient).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  std::uint16_t sequence_ = 0;
  std::uint64_t uplink_packets_ = 0;
  std::uint64_t downlink_packets_ = 0;
  std::uint64_t handshakes_completed_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::uint64_t tuned_pushes_ = 0;
};

}  // namespace reshape::net
