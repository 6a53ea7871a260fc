// Unit tests for src/net: virtual interfaces, the encrypted configuration
// handshake (Figure 2), and the live AP/client data path with MAC
// translation (Figure 3).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "attack/sniffer.h"
#include "core/scheduler.h"
#include "net/access_point.h"
#include "net/client.h"
#include "net/config_protocol.h"
#include "net/virtual_interface.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/bytes.h"

namespace reshape::net {
namespace {

// ---------------------------------------------------- VirtualInterface ---

TEST(VirtualInterfaceTest, Lifecycle) {
  VirtualInterface vif;
  EXPECT_EQ(vif.state(), InterfaceState::kDown);
  const auto addr = mac::MacAddress::parse("02:aa:bb:cc:dd:ee");
  vif.configure(addr);
  EXPECT_TRUE(vif.is_up());
  EXPECT_EQ(vif.address(), addr);
  vif.release();
  EXPECT_EQ(vif.state(), InterfaceState::kReleased);
}

TEST(VirtualInterfaceTest, GuardsMisuse) {
  VirtualInterface vif;
  EXPECT_THROW(vif.configure(mac::MacAddress{}), std::invalid_argument);
  EXPECT_THROW(vif.configure(mac::MacAddress::broadcast()),
               std::invalid_argument);
  EXPECT_THROW(vif.release(), std::invalid_argument);
  vif.configure(mac::MacAddress::parse("02:00:00:00:00:05"));
  EXPECT_THROW(vif.configure(mac::MacAddress::parse("02:00:00:00:00:06")),
               std::invalid_argument);
}

TEST(VirtualInterfaceTest, Counters) {
  VirtualInterface vif;
  vif.configure(mac::MacAddress::parse("02:00:00:00:00:07"));
  vif.record_tx(100);
  vif.record_tx(200);
  vif.record_rx(50);
  EXPECT_EQ(vif.tx_packets(), 2u);
  EXPECT_EQ(vif.tx_bytes(), 300u);
  EXPECT_EQ(vif.rx_packets(), 1u);
  EXPECT_EQ(vif.rx_bytes(), 50u);
}

// ------------------------------------------------------ config protocol ---

TEST(ConfigProtocolTest, RequestRoundTrip) {
  const mac::StreamCipher cipher{mac::SymmetricKey{11, 22}};
  ConfigRequest request;
  request.physical_address = mac::MacAddress::parse("02:01:02:03:04:05");
  request.nonce = 0xABCDEF;
  request.requested_interfaces = 3;
  const auto payload = encode_request(request, cipher, 777);
  const auto decoded = decode_request(payload, cipher);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->physical_address, request.physical_address);
  EXPECT_EQ(decoded->nonce, request.nonce);
  EXPECT_EQ(decoded->requested_interfaces, 3u);
}

TEST(ConfigProtocolTest, ResponseRoundTrip) {
  const mac::StreamCipher cipher{mac::SymmetricKey{33, 44}};
  ConfigResponse response;
  response.nonce = 99;
  util::Rng rng{5};
  for (int i = 0; i < 3; ++i) {
    response.virtual_addresses.push_back(mac::MacAddress::random_local(rng));
  }
  const auto payload = encode_response(response, cipher, 888);
  const auto decoded = decode_response(payload, cipher);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nonce, 99u);
  EXPECT_EQ(decoded->virtual_addresses, response.virtual_addresses);
}

TEST(ConfigProtocolTest, EavesdropperCannotDecode) {
  // The paper's core protocol property: without the key, the mapping
  // between physical and virtual addresses stays secret.
  const mac::StreamCipher alice{mac::SymmetricKey{1, 2}};
  const mac::StreamCipher eve{mac::SymmetricKey{9, 9}};
  ConfigRequest request;
  request.physical_address = mac::MacAddress::parse("02:01:02:03:04:05");
  request.nonce = 1;
  const auto payload = encode_request(request, alice, 1);
  EXPECT_FALSE(decode_request(payload, eve).has_value());
}

TEST(ConfigProtocolTest, CrossTypeDecodingFails) {
  const mac::StreamCipher cipher{mac::SymmetricKey{1, 2}};
  ConfigRequest request;
  request.physical_address = mac::MacAddress::parse("02:01:02:03:04:05");
  request.nonce = 5;
  const auto payload = encode_request(request, cipher, 1);
  EXPECT_FALSE(decode_response(payload, cipher).has_value());
}

TEST(ConfigProtocolTest, TruncatedPayloadRejected) {
  const mac::StreamCipher cipher{mac::SymmetricKey{1, 2}};
  EXPECT_FALSE(decode_request({1, 2, 3}, cipher).has_value());
  EXPECT_FALSE(decode_response({}, cipher).has_value());
}

// ----------------------------------------------------- live AP + client ---

struct Cell {
  sim::Simulator simulator;
  sim::Medium medium{[] {
                       sim::PathLossModel m;
                       m.shadowing_sigma_db = 0.0;
                       return m;
                     }(),
                     util::Rng{1}};
  mac::MacAddress bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  mac::MacAddress client_mac = mac::MacAddress::parse("02:00:00:00:00:02");
  mac::SymmetricKey key{42, 43};
  std::unique_ptr<AccessPoint> ap;
  std::unique_ptr<WirelessClient> client;

  explicit Cell(std::size_t default_interfaces = 3) {
    ApConfig config;
    config.default_interfaces = default_interfaces;
    ap = std::make_unique<AccessPoint>(
        simulator, medium, sim::Position{0, 0}, bssid, 1, config,
        util::Rng{7}, [] {
          return std::make_unique<core::OrthogonalScheduler>(
              core::OrthogonalScheduler::identity(
                  core::SizeRanges::paper_default()));
        });
    client = std::make_unique<WirelessClient>(
        simulator, medium, sim::Position{5, 5}, client_mac, bssid, 1, key,
        util::Rng{8},
        std::make_unique<core::OrthogonalScheduler>(
            core::OrthogonalScheduler::identity(
                core::SizeRanges::paper_default())));
    ap->associate(client_mac, key);
  }
};

TEST(HandshakeTest, ClientGetsRequestedInterfaces) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  EXPECT_EQ(cell.client->state(), ClientState::kConfigured);
  EXPECT_EQ(cell.client->interfaces().size(), 3u);
  EXPECT_EQ(cell.ap->handshakes_completed(), 1u);
  EXPECT_EQ(cell.ap->virtual_addresses_of(cell.client_mac).size(), 3u);
  for (const VirtualInterface& vif : cell.client->interfaces()) {
    EXPECT_TRUE(vif.is_up());
    EXPECT_TRUE(vif.address().is_locally_administered());
  }
}

TEST(HandshakeTest, ApDecidesWhenClientDefers) {
  Cell cell{/*default_interfaces=*/4};
  cell.client->request_virtual_interfaces(0);  // let the AP decide
  cell.simulator.run();
  EXPECT_EQ(cell.client->interfaces().size(), 4u);
}

TEST(HandshakeTest, ApCapsAtResourceCeiling) {
  Cell cell;
  cell.client->request_virtual_interfaces(100);
  cell.simulator.run();
  EXPECT_EQ(cell.client->interfaces().size(), 8u);  // ApConfig::max_interfaces
}

TEST(HandshakeTest, ReRequestRecyclesOldAddresses) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  const auto first = cell.ap->virtual_addresses_of(cell.client_mac);
  cell.client->request_virtual_interfaces(2);
  cell.simulator.run();
  const auto second = cell.ap->virtual_addresses_of(cell.client_mac);
  EXPECT_EQ(second.size(), 2u);
  for (const mac::MacAddress& a : second) {
    EXPECT_EQ(std::count(first.begin(), first.end(), a), 0)
        << "recycled address reused immediately";
  }
}

TEST(HandshakeTest, UnassociatedClientIgnored) {
  Cell cell;
  WirelessClient stranger{
      cell.simulator, cell.medium, sim::Position{9, 9},
      mac::MacAddress::parse("02:00:00:00:00:99"), cell.bssid, 1,
      mac::SymmetricKey{7, 7}, util::Rng{9},
      std::make_unique<core::RoundRobinScheduler>(1)};
  stranger.request_virtual_interfaces(3);
  cell.simulator.run();
  EXPECT_EQ(stranger.state(), ClientState::kAwaitingResponse);
  EXPECT_EQ(cell.ap->handshakes_completed(), 0u);
  EXPECT_GT(cell.ap->rejected_frames(), 0u);
}

TEST(HandshakeTest, ReplayedRequestIsRejected) {
  // An attacker who records a valid (encrypted) request and replays it
  // must not trigger a new assignment round at the AP.
  Cell cell;

  struct MgmtTap : sim::RadioListener {
    std::optional<mac::Frame> request;
    void on_frame(const mac::Frame& frame, double) override {
      if (frame.type == mac::FrameType::kManagement &&
          frame.subtype == mac::FrameSubtype::kAssociationRequest) {
        request = frame;
      }
    }
  } tap;
  cell.medium.attach(tap, sim::Position{1, 1}, 1);

  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  ASSERT_TRUE(tap.request.has_value());
  EXPECT_EQ(cell.ap->handshakes_completed(), 1u);
  const auto assigned = cell.ap->virtual_addresses_of(cell.client_mac);

  // Replay the captured frame verbatim.
  cell.medium.transmit(*tap.request, sim::Position{1, 1}, &tap);
  cell.simulator.run();
  EXPECT_EQ(cell.ap->handshakes_completed(), 1u);  // not honoured again
  EXPECT_GT(cell.ap->rejected_frames(), 0u);
  EXPECT_EQ(cell.ap->virtual_addresses_of(cell.client_mac), assigned);
  cell.medium.detach(tap);
}

TEST(HandshakeTest, WrongKeyClientGetsNoInterfaces) {
  Cell cell;
  // Associated with one key, but the client encrypts with another.
  WirelessClient impostor{
      cell.simulator, cell.medium, sim::Position{3, 3},
      mac::MacAddress::parse("02:00:00:00:00:55"), cell.bssid, 1,
      mac::SymmetricKey{1, 1}, util::Rng{10},
      std::make_unique<core::RoundRobinScheduler>(1)};
  cell.ap->associate(mac::MacAddress::parse("02:00:00:00:00:55"),
                     mac::SymmetricKey{2, 2});
  impostor.request_virtual_interfaces(3);
  cell.simulator.run();
  EXPECT_EQ(impostor.state(), ClientState::kAwaitingResponse);
  EXPECT_GT(cell.ap->rejected_frames(), 0u);
}

TEST(DataPathTest, UplinkUsesVirtualSourcesAndTranslates) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();

  std::vector<mac::MacAddress> seen_sources;
  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);

  std::vector<mac::MacAddress> delivered_identities;
  cell.ap->set_upper_layer_sink(
      [&](const mac::MacAddress& physical, std::uint32_t) {
        delivered_identities.push_back(physical);
      });

  // Sizes spanning all three OR ranges.
  for (const std::uint32_t payload : {50u, 800u, 1500u, 60u, 900u, 1500u}) {
    cell.client->send_packet(payload);
  }
  cell.simulator.run();

  // Upper layer always sees the physical identity (ARP circumvention).
  ASSERT_EQ(delivered_identities.size(), 6u);
  for (const mac::MacAddress& id : delivered_identities) {
    EXPECT_EQ(id, cell.client_mac);
  }
  // On the air, only virtual addresses appear as sources.
  const auto stations = sniffer.observed_stations();
  EXPECT_EQ(stations.size(), 3u);
  const auto virtuals = cell.ap->virtual_addresses_of(cell.client_mac);
  for (const mac::MacAddress& s : stations) {
    EXPECT_NE(s, cell.client_mac);
    EXPECT_NE(std::find(virtuals.begin(), virtuals.end(), s), virtuals.end());
  }
  cell.medium.detach(sniffer);
}

TEST(DataPathTest, DownlinkDispatchesAcrossVirtualMacs) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();

  std::size_t delivered = 0;
  cell.client->set_upper_layer_sink([&](std::uint32_t) { ++delivered; });

  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);

  for (const std::uint32_t payload : {50u, 800u, 1500u, 50u, 800u, 1500u}) {
    cell.ap->send_to_client(cell.client_mac, payload);
  }
  cell.simulator.run();

  EXPECT_EQ(delivered, 6u);
  EXPECT_EQ(cell.ap->downlink_packets(), 6u);
  // All three virtual MACs appear as destinations on the air.
  EXPECT_EQ(sniffer.observed_stations().size(), 3u);
  cell.medium.detach(sniffer);
}

TEST(DataPathTest, WithoutInterfacesPhysicalMacIsUsed) {
  Cell cell;
  std::size_t delivered = 0;
  cell.client->set_upper_layer_sink([&](std::uint32_t) { ++delivered; });
  cell.ap->send_to_client(cell.client_mac, 500);
  cell.client->send_packet(300);
  cell.simulator.run();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(cell.ap->uplink_packets(), 1u);
}

TEST(DataPathTest, SendToUnknownClientThrows) {
  Cell cell;
  EXPECT_THROW(cell.ap->send_to_client(
                   mac::MacAddress::parse("02:00:00:00:00:77"), 100),
               std::invalid_argument);
}

TEST(DataPathTest, RecycleRestoresPhysicalAddressing) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  EXPECT_EQ(cell.ap->recycle(cell.client_mac), 3u);
  EXPECT_TRUE(cell.ap->virtual_addresses_of(cell.client_mac).empty());
  // Downlink falls back to the physical MAC.
  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);
  cell.ap->send_to_client(cell.client_mac, 400);
  cell.simulator.run();
  const auto stations = sniffer.observed_stations();
  ASSERT_EQ(stations.size(), 1u);
  EXPECT_EQ(stations[0], cell.client_mac);
  cell.medium.detach(sniffer);
}

TEST(DataPathTest, DestroyingEndpointCancelsDeferredReleases) {
  // Releases scheduled by the streaming pipeline are lifetime-guarded:
  // tearing the client (or AP) down before the simulator drains must
  // cancel its pending frames, not dereference a dead object.
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();

  // Burst at one instant: the first frame releases immediately, the rest
  // queue behind the modeled radio and defer.
  for (int k = 0; k < 5; ++k) {
    cell.client->send_packet(1400);
  }
  const std::uint64_t delivered_before = cell.ap->uplink_packets();
  cell.client.reset();  // deferred release events still sit in the queue
  cell.simulator.run();
  EXPECT_EQ(cell.ap->uplink_packets(), delivered_before);

  // Same guard on the AP's downlink pipeline.
  for (int k = 0; k < 5; ++k) {
    cell.ap->send_to_client(cell.client_mac, 1400);
  }
  cell.ap.reset();
  cell.simulator.run();  // must not crash
}

TEST(DataPathTest, PerInterfacePowerControlsApply) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  std::vector<core::TransmitPowerControl> controls{
      core::TransmitPowerControl::fixed(5.0),
      core::TransmitPowerControl::fixed(15.0),
      core::TransmitPowerControl::fixed(25.0)};
  cell.client->set_interface_power_controls(std::move(controls));

  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);
  for (int k = 0; k < 30; ++k) {
    cell.client->send_packet(50);    // iface 0
    cell.client->send_packet(800);   // iface 1
    cell.client->send_packet(1500);  // iface 2
  }
  cell.simulator.run();

  const auto rssi = sniffer.mean_rssi();
  ASSERT_EQ(rssi.size(), 3u);
  std::vector<double> values;
  for (const auto& [addr, v] : rssi) {
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[1] - values[0], 10.0, 0.5);
  EXPECT_NEAR(values[2] - values[1], 10.0, 0.5);
  cell.medium.detach(sniffer);
}

TEST(DataPathTest, PowerControlSizeMismatchThrows) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  std::vector<core::TransmitPowerControl> wrong{
      core::TransmitPowerControl::fixed(5.0)};
  EXPECT_THROW(cell.client->set_interface_power_controls(std::move(wrong)),
               std::invalid_argument);
}

// ----------------------------------------------- tuned-configuration push ---

core::tuning::TunedConfiguration padded_tuned_config() {
  core::tuning::TunedConfiguration config = core::tuning::TunedConfiguration::
      identity("test-tuned", core::SizeRanges::paper_l5());
  config.pad_to[0] = config.range_bounds[0];
  config.pad_to[2] = config.range_bounds[2];
  return config;
}

TunedConfigUpdate make_update(std::uint64_t nonce) {
  TunedConfigUpdate update;
  update.nonce = nonce;
  update.config = padded_tuned_config();
  util::Rng rng{17};
  for (std::size_t i = 0; i < update.config.interfaces; ++i) {
    update.virtual_addresses.push_back(mac::MacAddress::random_local(rng));
  }
  return update;
}

TEST(ConfigProtocolTest, TunedConfigRoundTrip) {
  const mac::StreamCipher cipher{mac::SymmetricKey{55, 66}};
  const TunedConfigUpdate update = make_update(0xBEEF);
  const auto payload = encode_tuned_config(update, cipher, 999);
  const auto decoded = decode_tuned_config(payload, cipher);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nonce, update.nonce);
  EXPECT_EQ(decoded->virtual_addresses, update.virtual_addresses);
  EXPECT_EQ(decoded->config, update.config);  // structural equality
  // The decoded configuration can rebuild a working pipeline directly.
  const auto reshaper = decoded->config.make_reshaper({});
  EXPECT_EQ(reshaper->stream_count(), update.config.interfaces);
}

TEST(ConfigProtocolTest, TunedConfigWrongKeyAndCrossTypeRejected) {
  const mac::StreamCipher alice{mac::SymmetricKey{1, 2}};
  const mac::StreamCipher eve{mac::SymmetricKey{3, 4}};
  const auto payload = encode_tuned_config(make_update(7), alice, 1);
  EXPECT_FALSE(decode_tuned_config(payload, eve).has_value());
  EXPECT_FALSE(decode_request(payload, alice).has_value());
  EXPECT_FALSE(decode_response(payload, alice).has_value());
}

/// Seals an arbitrary plaintext body the way the protocol does — used to
/// hand the decoder bodies the (validating) encoder refuses to produce.
std::vector<std::uint8_t> seal_raw(const std::vector<std::uint8_t>& body,
                                   const mac::StreamCipher& cipher,
                                   std::uint64_t cipher_nonce) {
  util::ByteWriter payload;
  payload.u64(cipher_nonce);
  payload.bytes(cipher.encrypt(body, cipher_nonce));
  return payload.take();
}

TEST(ConfigProtocolTest, ResponseCountOverflowRejected) {
  // A keyed 17-byte response body whose address count wraps 17 + count * 8
  // back to 17: the decoder must reject it, not read past the body.
  const mac::StreamCipher cipher{mac::SymmetricKey{7, 8}};
  util::ByteWriter writer;
  writer.u8(0x02);
  writer.u64(42);                      // nonce
  writer.u64(std::uint64_t{1} << 61);  // count
  const std::vector<std::uint8_t> body = writer.take();
  ASSERT_EQ(body.size(), 17u);
  EXPECT_FALSE(decode_response(seal_raw(body, cipher, 3), cipher).has_value());
  // The same body with an honest count of zero still decodes.
  util::ByteWriter honest;
  honest.bytes(std::span{body}.first(9));
  honest.u64(0);
  const auto decoded =
      decode_response(seal_raw(honest.take(), cipher, 3), cipher);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nonce, 42u);
  EXPECT_TRUE(decoded->virtual_addresses.empty());
}

std::vector<std::uint8_t> tuned_body(const TunedConfigUpdate& update) {
  util::ByteWriter body;
  body.u8(0x03);
  body.u64(update.nonce);
  body.u64(update.virtual_addresses.size());
  for (const mac::MacAddress& a : update.virtual_addresses) {
    body.u64(a.to_u64());
  }
  body.u64(update.config.range_bounds.size());
  for (const std::uint32_t bound : update.config.range_bounds) {
    body.u64(bound);
  }
  for (const std::size_t owner : update.config.assignment) {
    body.u64(owner);
  }
  body.u64(update.config.interfaces);
  for (const std::uint32_t pad : update.config.pad_to) {
    body.u64(pad);
  }
  return body.take();
}

TEST(ConfigProtocolTest, TunedConfigMalformedBodiesRejected) {
  const mac::StreamCipher cipher{mac::SymmetricKey{5, 6}};
  EXPECT_FALSE(decode_tuned_config({}, cipher).has_value());
  EXPECT_FALSE(decode_tuned_config({1, 2, 3}, cipher).has_value());

  // Truncations at every length are rejected, never misparsed.
  const auto payload = encode_tuned_config(make_update(11), cipher, 2);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + cut);
    EXPECT_FALSE(decode_tuned_config(truncated, cipher).has_value())
        << "cut=" << cut;
  }

  // The encoder refuses invalid updates outright...
  TunedConfigUpdate mismatched = make_update(13);
  mismatched.virtual_addresses.pop_back();
  EXPECT_THROW((void)encode_tuned_config(mismatched, cipher, 4),
               std::invalid_argument);

  // ...and the decoder rejects structurally invalid bodies that arrive
  // correctly sealed: assignment to a nonexistent interface, an interface
  // owning no range, non-increasing bounds, a zero bound, and an address
  // set that does not match I.
  const auto decode_patched = [&cipher](TunedConfigUpdate update) {
    return decode_tuned_config(seal_raw(tuned_body(update), cipher, 9),
                               cipher);
  };
  TunedConfigUpdate valid = make_update(14);
  ASSERT_TRUE(decode_patched(valid).has_value());  // the harness is sound

  TunedConfigUpdate bad = make_update(15);
  bad.config.assignment[1] = bad.config.interfaces + 3;
  EXPECT_FALSE(decode_patched(bad).has_value());

  bad = make_update(16);
  for (std::size_t& owner : bad.config.assignment) {
    owner = 0;  // interfaces 1..I-1 own nothing
  }
  EXPECT_FALSE(decode_patched(bad).has_value());

  bad = make_update(17);
  bad.config.range_bounds[1] = bad.config.range_bounds[0];
  EXPECT_FALSE(decode_patched(bad).has_value());

  bad = make_update(18);
  bad.config.range_bounds[0] = 0;
  EXPECT_FALSE(decode_patched(bad).has_value());

  bad = make_update(19);
  bad.virtual_addresses.pop_back();
  EXPECT_FALSE(decode_patched(bad).has_value());
}

TEST(TunedPushTest, ApPushRebuildsClientPipeline) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  ASSERT_EQ(cell.client->interfaces().size(), 3u);
  const auto old_virtuals = cell.ap->virtual_addresses_of(cell.client_mac);

  const core::tuning::TunedConfiguration config = padded_tuned_config();
  ASSERT_TRUE(cell.ap->push_tuned_configuration(cell.client_mac, config));
  cell.simulator.run();

  // The client rebuilt its interface set from the pushed addresses...
  EXPECT_EQ(cell.ap->tuned_pushes(), 1u);
  EXPECT_EQ(cell.client->state(), ClientState::kConfigured);
  ASSERT_EQ(cell.client->interfaces().size(), 5u);
  const auto new_virtuals = cell.ap->virtual_addresses_of(cell.client_mac);
  ASSERT_EQ(new_virtuals.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cell.client->interfaces()[i].address(), new_virtuals[i]);
  }
  ASSERT_TRUE(cell.client->tuned_configuration().has_value());
  EXPECT_EQ(*cell.client->tuned_configuration(), config);

  // ...and its uplink pipeline runs the pushed point: sources on the air
  // are the *new* virtual MACs, and padded interfaces emit padded sizes.
  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);
  for (int k = 0; k < 10; ++k) {
    cell.client->send_packet(40);  // small range -> padded to its bound
  }
  cell.simulator.run();
  for (const mac::MacAddress& station : sniffer.observed_stations()) {
    EXPECT_EQ(std::find(old_virtuals.begin(), old_virtuals.end(), station),
              old_virtuals.end());
    EXPECT_NE(std::find(new_virtuals.begin(), new_virtuals.end(), station),
              new_virtuals.end());
  }
  const auto stations = sniffer.observed_stations();
  ASSERT_EQ(stations.size(), 1u);  // all small packets land on one interface
  const traffic::Trace flow =
      sniffer.flow_of(stations.front(), traffic::AppType::kChatting);
  for (const traffic::PacketRecord& r : flow.records()) {
    EXPECT_EQ(r.size_bytes, config.range_bounds[0]);  // padded up
  }
  cell.medium.detach(sniffer);

  // Uplink data still translates back to the physical identity.
  std::vector<mac::MacAddress> delivered;
  cell.ap->set_upper_layer_sink(
      [&](const mac::MacAddress& physical, std::uint32_t) {
        delivered.push_back(physical);
      });
  cell.client->send_packet(700);
  cell.simulator.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.front(), cell.client_mac);
}

TEST(TunedPushTest, ReplayedPushIsIgnored) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();

  // Capture the push on the air, then re-inject it verbatim.
  mac::Frame captured;
  struct Tap final : sim::RadioListener {
    mac::Frame* out;
    explicit Tap(mac::Frame* frame) : out{frame} {}
    void on_frame(const mac::Frame& frame, double) override {
      if (frame.type == mac::FrameType::kManagement &&
          frame.subtype == mac::FrameSubtype::kAction) {
        *out = frame;
      }
    }
  } tap{&captured};
  cell.medium.attach(tap, sim::Position{1, 1}, 1);

  ASSERT_TRUE(cell.ap->push_tuned_configuration(cell.client_mac,
                                                padded_tuned_config()));
  cell.simulator.run();
  ASSERT_EQ(cell.client->rejected_config_pushes(), 0u);
  ASSERT_FALSE(captured.payload.empty());

  cell.medium.transmit(captured, sim::Position{1, 1}, &tap);
  cell.simulator.run();
  EXPECT_EQ(cell.client->rejected_config_pushes(), 1u);
  EXPECT_EQ(cell.client->interfaces().size(), 5u);  // state unchanged
  cell.medium.detach(tap);
}

TEST(TunedPushTest, InterfacePowerControlsSurviveSameCountPush) {
  Cell cell;
  cell.client->request_virtual_interfaces(3);
  cell.simulator.run();
  std::vector<core::TransmitPowerControl> controls{
      core::TransmitPowerControl::fixed(5.0),
      core::TransmitPowerControl::fixed(15.0),
      core::TransmitPowerControl::fixed(25.0)};
  cell.client->set_interface_power_controls(std::move(controls));

  // A same-count push keeps the positional §V-A disguise...
  const core::tuning::TunedConfiguration same_count =
      core::tuning::TunedConfiguration::identity(
          "same-count", core::SizeRanges::paper_default());
  ASSERT_TRUE(cell.ap->push_tuned_configuration(cell.client_mac, same_count));
  cell.simulator.run();

  attack::Sniffer sniffer{cell.bssid};
  cell.medium.attach(sniffer, sim::Position{2, -2}, 1);
  for (int k = 0; k < 20; ++k) {
    cell.client->send_packet(50);    // iface 0
    cell.client->send_packet(800);   // iface 1
    cell.client->send_packet(1500);  // iface 2
  }
  cell.simulator.run();
  const auto rssi = sniffer.mean_rssi();
  ASSERT_EQ(rssi.size(), 3u);
  std::vector<double> values;
  for (const auto& [addr, v] : rssi) {
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(values[1] - values[0], 10.0, 0.5);
  EXPECT_NEAR(values[2] - values[1], 10.0, 0.5);
  cell.medium.detach(sniffer);

  // ...while a count-changing push drops it (positions are meaningless),
  // falling back to the single global control.
  ASSERT_TRUE(cell.ap->push_tuned_configuration(cell.client_mac,
                                                padded_tuned_config()));
  cell.simulator.run();
  attack::Sniffer after{cell.bssid};
  cell.medium.attach(after, sim::Position{2, -2}, 1);
  for (int k = 0; k < 20; ++k) {
    cell.client->send_packet(50);
    cell.client->send_packet(800);
    cell.client->send_packet(1500);
  }
  cell.simulator.run();
  const auto flat = after.mean_rssi();
  ASSERT_GE(flat.size(), 2u);
  for (std::size_t i = 1; i < flat.size(); ++i) {
    EXPECT_NEAR(flat[i].second, flat[0].second, 0.5);
  }
  cell.medium.detach(after);
}

TEST(TunedPushTest, PushValidatesConfigAndClient) {
  Cell cell;
  // Unknown client: refused without side effects.
  EXPECT_FALSE(cell.ap->push_tuned_configuration(
      mac::MacAddress::parse("02:00:00:00:00:99"), padded_tuned_config()));

  // Structurally invalid configuration: rejected loudly.
  core::tuning::TunedConfiguration bad = padded_tuned_config();
  bad.assignment[0] = 42;
  EXPECT_THROW(
      (void)cell.ap->push_tuned_configuration(cell.client_mac, bad),
      std::invalid_argument);

  // Interface ceiling: ApConfig::max_interfaces caps pushes too.
  core::tuning::TunedConfiguration too_wide =
      core::tuning::TunedConfiguration::identity(
          "too-wide", core::SizeRanges{[] {
            std::vector<std::uint32_t> bounds;
            for (std::uint32_t j = 1; j <= 9; ++j) {
              bounds.push_back(200 * j);
            }
            return bounds;
          }()});
  EXPECT_THROW(
      (void)cell.ap->push_tuned_configuration(cell.client_mac, too_wide),
      std::invalid_argument);
}

}  // namespace
}  // namespace reshape::net
