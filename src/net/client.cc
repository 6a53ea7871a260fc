#include "net/client.h"

#include "net/config_protocol.h"
#include "net/deferred_release.h"
#include "sim/channel/channel_arbiter.h"
#include "util/check.h"

namespace reshape::net {

WirelessClient::WirelessClient(
    sim::Simulator& simulator, sim::Medium& medium, sim::Position position,
    mac::MacAddress physical_address, mac::MacAddress bssid, int channel,
    mac::SymmetricKey key, util::Rng rng,
    std::unique_ptr<core::Scheduler> uplink_scheduler,
    core::online::StreamingConfig streaming)
    : simulator_{simulator},
      medium_{medium},
      position_{position},
      physical_address_{physical_address},
      bssid_{bssid},
      channel_{channel},
      cipher_{key},
      nonce_gen_{rng.next_u64()},
      tpc_{core::TransmitPowerControl::fixed(15.0)},
      streaming_{streaming},
      reshaper_{core::ReshapingDefense{checked(std::move(uplink_scheduler))},
                streaming.accounting_only()} {
  util::require(!physical_address_.is_null(),
                "WirelessClient: physical address must be set");
  medium_.attach(*this, position_, channel_);
}

WirelessClient::~WirelessClient() { medium_.detach(*this); }

std::unique_ptr<core::Scheduler> WirelessClient::checked(
    std::unique_ptr<core::Scheduler> scheduler) {
  util::require(scheduler != nullptr,
                "WirelessClient: uplink scheduler must not be null");
  return scheduler;
}

void WirelessClient::set_upper_layer_sink(
    std::function<void(std::uint32_t)> sink) {
  upper_layer_ = std::move(sink);
}

void WirelessClient::set_power_control(core::TransmitPowerControl tpc) {
  tpc_ = tpc;
}

void WirelessClient::set_interface_power_controls(
    std::vector<core::TransmitPowerControl> controls) {
  util::require(state_ == ClientState::kConfigured &&
                    controls.size() == interfaces_.size(),
                "WirelessClient::set_interface_power_controls: one control "
                "per configured interface");
  interface_tpc_ = std::move(controls);
}

const sim::channel::ChannelStats* WirelessClient::observed_channel_stats()
    const {
  const sim::channel::ChannelArbiter* arbiter = medium_.arbiter_for(channel_);
  return arbiter == nullptr ? nullptr : arbiter->stats_of(this);
}

void WirelessClient::set_packet_trace(obs::PacketTrace* trace) {
  reshaper_.set_packet_trace(trace);
}

void WirelessClient::transmit(mac::Frame frame) {
  transmit_at(std::move(frame), tpc_, simulator_.now());
}

void WirelessClient::transmit_at(mac::Frame frame,
                                 core::TransmitPowerControl& tpc,
                                 util::TimePoint when) {
  // Power and sequence are stamped in send order so TPC draws stay
  // deterministic regardless of how releases interleave on the clock.
  frame.channel = channel_;
  frame.tx_power_dbm = tpc.next_power_dbm();
  frame.sequence = sequence_++;
  release_at(simulator_, medium_, position_, this, alive_, std::move(frame),
             when);
}

void WirelessClient::request_virtual_interfaces(std::uint32_t count) {
  ConfigRequest request;
  request.physical_address = physical_address_;
  request.nonce = nonce_gen_.next();
  request.requested_interfaces = count;
  pending_nonce_ = request.nonce;
  state_ = ClientState::kAwaitingResponse;

  mac::Frame frame;
  frame.type = mac::FrameType::kManagement;
  frame.subtype = mac::FrameSubtype::kAssociationRequest;
  frame.source = physical_address_;
  frame.destination = bssid_;
  frame.bssid = bssid_;
  frame.payload = encode_request(request, cipher_, nonce_gen_.next());
  frame.size_bytes =
      mac::on_air_size(static_cast<std::uint32_t>(frame.payload.size()));
  transmit(std::move(frame));
}

void WirelessClient::handle_config_response(const mac::Frame& frame) {
  const auto response = decode_response(frame.payload, cipher_);
  if (!response || !pending_nonce_.has_value() ||
      response->nonce != *pending_nonce_ ||
      response->virtual_addresses.empty()) {
    // "It checks if the nonce corresponds to the request that it has
    // sent" — mismatches are dropped, not acted on.
    ++handshake_failures_;
    return;
  }
  interfaces_.clear();
  interfaces_.resize(response->virtual_addresses.size());
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    interfaces_[i].configure(response->virtual_addresses[i]);
  }
  pending_nonce_.reset();
  state_ = ClientState::kConfigured;
}

void WirelessClient::handle_tuned_config(const mac::Frame& frame) {
  const auto update = decode_tuned_config(frame.payload, cipher_);
  if (!update || !seen_push_nonces_.insert(update->nonce).second) {
    // Wrong key / tampered / malformed, or a replay of an honoured push.
    ++rejected_config_pushes_;
    return;
  }
  // Rebuild the MAC identities and the uplink pipeline from the pushed
  // point. The reshaper is replaced wholesale: scheduler state and stats
  // restart under the new configuration, exactly like the AP's downlink
  // twin.
  const bool interface_count_changed =
      update->virtual_addresses.size() != interfaces_.size();
  interfaces_.clear();
  interfaces_.resize(update->virtual_addresses.size());
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    interfaces_[i].configure(update->virtual_addresses[i]);
  }
  // Per-interface power disguises are positional: they stay valid when
  // the interface count is unchanged, but a different I leaves nothing
  // sensible to map them onto — drop them (the global control takes
  // over) and let the caller re-establish the disguise; see the header.
  if (interface_count_changed) {
    interface_tpc_.clear();
  }
  obs::PacketTrace* trace = reshaper_.packet_trace();
  reshaper_ = core::online::StreamingReshaper{
      update->config.make_composition(), streaming_.accounting_only()};
  reshaper_.set_packet_trace(trace);  // tracing survives the rebuild
  tuned_ = std::move(update->config);
  pending_nonce_.reset();
  state_ = ClientState::kConfigured;
}

bool WirelessClient::owns_address(const mac::MacAddress& addr) const {
  if (addr == physical_address_) {
    return true;
  }
  for (const VirtualInterface& vif : interfaces_) {
    if (vif.is_up() && vif.address() == addr) {
      return true;
    }
  }
  return false;
}

void WirelessClient::on_frame(const mac::Frame& frame, double /*rssi_dbm*/) {
  if (frame.type == mac::FrameType::kManagement &&
      frame.subtype == mac::FrameSubtype::kAssociationResponse &&
      frame.destination == physical_address_ && frame.source == bssid_) {
    handle_config_response(frame);
    return;
  }
  if (frame.type == mac::FrameType::kManagement &&
      frame.subtype == mac::FrameSubtype::kAction &&
      frame.destination == physical_address_ && frame.source == bssid_) {
    handle_tuned_config(frame);
    return;
  }
  if (!frame.is_data() || !owns_address(frame.destination)) {
    return;  // other stations' traffic
  }
  // MAC translation: whichever virtual interface received the frame, the
  // upper layer sees one identity (§III-B.2 "transparent to upper
  // layers").
  for (VirtualInterface& vif : interfaces_) {
    if (vif.is_up() && vif.address() == frame.destination) {
      vif.record_rx(frame.size_bytes);
      break;
    }
  }
  ++rx_packets_;
  if (upper_layer_) {
    upper_layer_(mac::payload_of(frame.size_bytes));
  }
}

void WirelessClient::send_packet(std::uint32_t payload_bytes) {
  mac::Frame frame;
  frame.type = mac::FrameType::kData;
  frame.subtype = mac::FrameSubtype::kQosData;
  frame.destination = bssid_;
  frame.bssid = bssid_;
  frame.size_bytes = mac::on_air_size(payload_bytes);

  util::TimePoint release = simulator_.now();
  std::optional<std::size_t> iface;
  if (state_ == ClientState::kConfigured && !interfaces_.empty()) {
    traffic::PacketRecord record;
    record.time = simulator_.now();
    record.size_bytes = frame.size_bytes;
    record.direction = mac::Direction::kUplink;
    // The online pipeline shapes the size, picks the interface, and
    // schedules the release behind the shared radio.
    const core::online::ShapedPacket shaped = reshaper_.push(record);
    const std::size_t i = shaped.interface_index % interfaces_.size();
    frame.source = interfaces_[i].address();
    frame.size_bytes = shaped.record.size_bytes;
    frame.trace_id = shaped.trace_id;
    interfaces_[i].record_tx(frame.size_bytes);
    release = shaped.tx_start;
    iface = i;
  } else {
    frame.source = physical_address_;
  }
  ++tx_packets_;
  // Per-interface power disguise (§V-A) overrides the global control.
  core::TransmitPowerControl& tpc =
      (iface.has_value() && *iface < interface_tpc_.size())
          ? interface_tpc_[*iface]
          : tpc_;
  transmit_at(std::move(frame), tpc, release);
}

}  // namespace reshape::net
