#include "net/access_point.h"

#include <algorithm>

#include "net/config_protocol.h"
#include "net/deferred_release.h"
#include "sim/channel/channel_arbiter.h"
#include "util/check.h"

namespace reshape::net {

AccessPoint::AccessPoint(
    sim::Simulator& simulator, sim::Medium& medium, sim::Position position,
    mac::MacAddress bssid, int channel, ApConfig config, util::Rng rng,
    std::function<std::unique_ptr<core::Scheduler>()> scheduler_factory)
    : simulator_{simulator},
      medium_{medium},
      position_{position},
      bssid_{bssid},
      channel_{channel},
      config_{config},
      pool_{rng.fork()},
      nonce_gen_{rng.next_u64()},
      tpc_{core::TransmitPowerControl::fixed(config.tx_power_dbm)},
      scheduler_factory_{std::move(scheduler_factory)} {
  util::require(static_cast<bool>(scheduler_factory_),
                "AccessPoint: scheduler factory must be callable");
  util::require(config_.default_interfaces >= 1 &&
                    config_.default_interfaces <= config_.max_interfaces,
                "AccessPoint: bad interface limits");
  pool_.reserve(bssid_);
  medium_.attach(*this, position_, channel_);
}

AccessPoint::~AccessPoint() { medium_.detach(*this); }

void AccessPoint::associate(const mac::MacAddress& client_physical,
                            mac::SymmetricKey key) {
  util::require(!clients_.contains(client_physical),
                "AccessPoint::associate: client already associated");
  pool_.reserve(client_physical);
  auto reshaper = std::make_unique<core::online::StreamingReshaper>(
      core::ReshapingDefense{scheduler_factory_()},
      config_.streaming.accounting_only());
  reshaper->set_packet_trace(trace_);
  clients_.emplace(client_physical,
                   ClientState{key, {}, std::move(reshaper), {}});
}

void AccessPoint::set_packet_trace(obs::PacketTrace* trace) {
  trace_ = trace;
  for (auto& [physical, client] : clients_) {
    client.reshaper->set_packet_trace(trace);
  }
}

void AccessPoint::set_upper_layer_sink(UpperLayerSink sink) {
  upper_layer_ = std::move(sink);
}

void AccessPoint::set_power_control(core::TransmitPowerControl tpc) {
  tpc_ = tpc;
}

std::size_t AccessPoint::decide_interface_count(
    std::uint32_t requested) const {
  // "Determined by the privacy requirement and the resource availability":
  // honour the client's ask up to the resource ceiling; fall back to the
  // configured default when the client defers.
  if (requested == 0) {
    return config_.default_interfaces;
  }
  return std::min<std::size_t>(requested, config_.max_interfaces);
}

void AccessPoint::handle_config_request(const mac::Frame& frame) {
  const auto it = clients_.find(frame.source);
  if (it == clients_.end()) {
    ++rejected_frames_;
    return;  // not associated: ignore
  }
  ClientState& client = it->second;
  const mac::StreamCipher cipher{client.key};
  const auto request = decode_request(frame.payload, cipher);
  if (!request || request->physical_address != frame.source) {
    ++rejected_frames_;
    return;  // wrong key / tampered / spoofed
  }
  if (!client.seen_nonces.insert(request->nonce).second) {
    ++rejected_frames_;
    return;  // replay of a previously honoured request
  }

  // Recycle any previous assignment, then mint a fresh set.
  recycle(frame.source);
  const std::size_t count =
      decide_interface_count(request->requested_interfaces);
  auto addresses = pool_.allocate_n(count);
  if (!addresses) {
    ++rejected_frames_;
    return;  // pool exhaustion (practically impossible at 48 bits)
  }
  client.virtual_addresses = *addresses;
  for (const mac::MacAddress& a : client.virtual_addresses) {
    virtual_to_physical_.emplace(a, frame.source);
  }

  ConfigResponse response{request->nonce, client.virtual_addresses};
  mac::Frame reply;
  reply.type = mac::FrameType::kManagement;
  reply.subtype = mac::FrameSubtype::kAssociationResponse;
  reply.source = bssid_;
  reply.destination = frame.source;
  reply.bssid = bssid_;
  reply.payload = encode_response(response, cipher, nonce_gen_.next());
  reply.size_bytes = mac::on_air_size(
      static_cast<std::uint32_t>(reply.payload.size()));
  transmit(std::move(reply));
  ++handshakes_completed_;
}

void AccessPoint::transmit(mac::Frame frame) {
  transmit_at(std::move(frame), simulator_.now());
}

void AccessPoint::transmit_at(mac::Frame frame, util::TimePoint when) {
  // Power and sequence stamped in send order (deterministic TPC draws).
  frame.channel = channel_;
  frame.tx_power_dbm = tpc_.next_power_dbm();
  frame.sequence = sequence_++;
  release_at(simulator_, medium_, position_, this, alive_, std::move(frame),
             when);
}

AccessPoint::ClientState* AccessPoint::client_of_virtual(
    const mac::MacAddress& addr) {
  const auto v = virtual_to_physical_.find(addr);
  if (v == virtual_to_physical_.end()) {
    return nullptr;
  }
  const auto c = clients_.find(v->second);
  return c == clients_.end() ? nullptr : &c->second;
}

void AccessPoint::on_frame(const mac::Frame& frame, double /*rssi_dbm*/) {
  if (frame.type == mac::FrameType::kManagement &&
      frame.subtype == mac::FrameSubtype::kAssociationRequest &&
      frame.destination == bssid_) {
    handle_config_request(frame);
    return;
  }
  if (!frame.is_data() || frame.destination != bssid_) {
    return;  // not for us (promiscuous delivery is filtered here)
  }

  // Uplink data: translate a virtual source back to the physical address
  // so everything above the MAC layer sees one stable identity.
  mac::MacAddress physical = frame.source;
  if (const auto v = virtual_to_physical_.find(frame.source);
      v != virtual_to_physical_.end()) {
    physical = v->second;
  } else if (!clients_.contains(frame.source)) {
    ++rejected_frames_;
    return;  // unknown transmitter
  }
  ++uplink_packets_;
  if (upper_layer_) {
    upper_layer_(physical, mac::payload_of(frame.size_bytes));
  }
}

void AccessPoint::send_to_client(const mac::MacAddress& client_physical,
                                 std::uint32_t payload_bytes) {
  const auto it = clients_.find(client_physical);
  util::require(it != clients_.end(),
                "AccessPoint::send_to_client: client not associated");
  ClientState& client = it->second;

  mac::Frame frame;
  frame.type = mac::FrameType::kData;
  frame.subtype = mac::FrameSubtype::kQosData;
  frame.source = bssid_;
  frame.bssid = bssid_;
  frame.size_bytes = mac::on_air_size(payload_bytes);

  if (client.virtual_addresses.empty()) {
    frame.destination = client_physical;
    ++downlink_packets_;
    transmit(std::move(frame));
    return;
  }
  // Reshaping algorithm on the AP side (Figure 3): the online pipeline
  // sees the on-air size it is about to produce, picks the interface,
  // and schedules the release behind the shared radio — the frame is
  // deferred to that release time.
  traffic::PacketRecord record;
  record.time = simulator_.now();
  record.size_bytes = frame.size_bytes;
  record.direction = mac::Direction::kDownlink;
  const core::online::ShapedPacket shaped = client.reshaper->push(record);
  const std::size_t i =
      shaped.interface_index % client.virtual_addresses.size();
  frame.destination = client.virtual_addresses[i];
  frame.size_bytes = shaped.record.size_bytes;
  frame.trace_id = shaped.trace_id;
  ++downlink_packets_;
  transmit_at(std::move(frame), shaped.tx_start);
}

const core::online::StreamingStats* AccessPoint::modeled_reshaping_stats_of(
    const mac::MacAddress& client_physical) const {
  const auto it = clients_.find(client_physical);
  return it == clients_.end() ? nullptr : &it->second.reshaper->stats();
}

const sim::channel::ChannelStats* AccessPoint::observed_channel_stats()
    const {
  const sim::channel::ChannelArbiter* arbiter = medium_.arbiter_for(channel_);
  return arbiter == nullptr ? nullptr : arbiter->stats_of(this);
}

std::vector<mac::MacAddress> AccessPoint::virtual_addresses_of(
    const mac::MacAddress& client_physical) const {
  const auto it = clients_.find(client_physical);
  return it == clients_.end() ? std::vector<mac::MacAddress>{}
                              : it->second.virtual_addresses;
}

bool AccessPoint::push_tuned_configuration(
    const mac::MacAddress& client_physical,
    const core::tuning::TunedConfiguration& config) {
  config.validate();
  util::require(config.interfaces <= config_.max_interfaces,
                "AccessPoint::push_tuned_configuration: configuration "
                "exceeds the per-client interface ceiling");
  const auto it = clients_.find(client_physical);
  if (it == clients_.end()) {
    return false;
  }
  ClientState& client = it->second;

  auto addresses = pool_.allocate_n(config.interfaces);
  if (!addresses) {
    return false;  // pool exhaustion (practically impossible at 48 bits)
  }
  recycle(client_physical);
  client.virtual_addresses = *addresses;
  for (const mac::MacAddress& a : client.virtual_addresses) {
    virtual_to_physical_.emplace(a, client_physical);
  }
  // The AP-side downlink pipeline is rebuilt from the same configuration
  // the client will rebuild its uplink from — both ends of the link run
  // the pushed point (stats restart with the new pipeline).
  client.reshaper =
      config.make_reshaper(config_.streaming.accounting_only());
  client.reshaper->set_packet_trace(trace_);  // tracing survives the rebuild

  TunedConfigUpdate update{nonce_gen_.next(), client.virtual_addresses,
                           config};
  const mac::StreamCipher cipher{client.key};
  mac::Frame push;
  push.type = mac::FrameType::kManagement;
  push.subtype = mac::FrameSubtype::kAction;
  push.source = bssid_;
  push.destination = client_physical;
  push.bssid = bssid_;
  push.payload = encode_tuned_config(update, cipher, nonce_gen_.next());
  push.size_bytes =
      mac::on_air_size(static_cast<std::uint32_t>(push.payload.size()));
  transmit(std::move(push));
  ++tuned_pushes_;
  return true;
}

std::size_t AccessPoint::recycle(const mac::MacAddress& client_physical) {
  const auto it = clients_.find(client_physical);
  if (it == clients_.end()) {
    return 0;
  }
  std::size_t reclaimed = 0;
  for (const mac::MacAddress& a : it->second.virtual_addresses) {
    virtual_to_physical_.erase(a);
    reclaimed += pool_.release(a) ? 1 : 0;
  }
  it->second.virtual_addresses.clear();
  return reclaimed;
}

}  // namespace reshape::net
