// Unit tests for src/mac: addresses, frames, the address pool, and the
// configuration-handshake cipher.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "mac/address_pool.h"
#include "mac/crypto.h"
#include "mac/frame.h"
#include "mac/mac_address.h"
#include "util/rng.h"

namespace reshape::mac {
namespace {

// --------------------------------------------------------- MacAddress ---

TEST(MacAddressTest, RoundTripsU64) {
  const MacAddress a = MacAddress::from_u64(0x001122334455ULL);
  EXPECT_EQ(a.to_u64(), 0x001122334455ULL);
  EXPECT_EQ(a.to_string(), "00:11:22:33:44:55");
}

TEST(MacAddressTest, ParseAcceptsBothCases) {
  EXPECT_EQ(MacAddress::parse("AA:bb:Cc:dD:00:09").to_u64(),
            0xAABBCCDD0009ULL);
}

TEST(MacAddressTest, ParseRejectsMalformed) {
  EXPECT_THROW((void)MacAddress::parse("not-a-mac"), std::invalid_argument);
  EXPECT_THROW((void)MacAddress::parse("aa:bb:cc:dd:ee"),
               std::invalid_argument);
  EXPECT_THROW((void)MacAddress::parse("aa:bb:cc:dd:ee:gg"),
               std::invalid_argument);
  EXPECT_THROW((void)MacAddress::parse("aa-bb-cc-dd-ee-ff"),
               std::invalid_argument);
}

TEST(MacAddressTest, ParseFormatRoundTrip) {
  util::Rng rng{5};
  for (int i = 0; i < 50; ++i) {
    const MacAddress a = MacAddress::random_local(rng);
    EXPECT_EQ(MacAddress::parse(a.to_string()), a);
  }
}

TEST(MacAddressTest, RandomLocalSetsDriverBits) {
  util::Rng rng{3};
  for (int i = 0; i < 100; ++i) {
    const MacAddress a = MacAddress::random_local(rng);
    EXPECT_TRUE(a.is_locally_administered());
    EXPECT_FALSE(a.is_multicast());
  }
}

TEST(MacAddressTest, BroadcastIsMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
}

TEST(MacAddressTest, NullDetection) {
  EXPECT_TRUE(MacAddress{}.is_null());
  EXPECT_FALSE(MacAddress::from_u64(1).is_null());
}

TEST(MacAddressTest, HashDistinguishes) {
  std::unordered_set<MacAddress> set;
  util::Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    set.insert(MacAddress::random_local(rng));
  }
  EXPECT_EQ(set.size(), 1000u);  // collisions at 46 random bits: ~0
}

// --------------------------------------------------------------- frame ---

TEST(FrameTest, OnAirSizeAddsOverhead) {
  const std::uint32_t overhead = FrameOverhead::encrypted_data_total();
  EXPECT_EQ(overhead, 24u + 2u + 4u + 8u + 8u + 8u);
  EXPECT_EQ(on_air_size(100), 100 + overhead);
}

TEST(FrameTest, OnAirSizeClampsToMax) {
  EXPECT_EQ(on_air_size(5000), kMaxFrameBytes);
  EXPECT_EQ(on_air_size(kMaxFrameBytes), kMaxFrameBytes);
}

TEST(FrameTest, PayloadOfInvertsOnAirSize) {
  for (std::uint32_t p : {0u, 1u, 100u, 1400u}) {
    EXPECT_EQ(payload_of(on_air_size(p)), p);
  }
  EXPECT_EQ(payload_of(10), 0u);  // smaller than pure overhead
}

TEST(FrameTest, AirtimeScalesWithSizeAndRate) {
  const auto t_small = airtime(100, 54.0);
  const auto t_large = airtime(1500, 54.0);
  EXPECT_LT(t_small, t_large);
  const auto t_slow = airtime(1500, 1.0);
  EXPECT_GT(t_slow, t_large);
  // 1500 B at 1 Mbps = 12 ms payload + fixed overhead.
  EXPECT_NEAR(t_slow.to_seconds(), 0.012054, 1e-5);
}

TEST(FrameTest, AirtimeRejectsNonPositiveRate) {
  EXPECT_THROW((void)airtime(100, 0.0), std::invalid_argument);
  EXPECT_THROW((void)airtime(100, -1.0), std::invalid_argument);
}

TEST(FrameTest, DataFrameFlag) {
  Frame f;
  EXPECT_TRUE(f.is_data());
  f.type = FrameType::kManagement;
  EXPECT_FALSE(f.is_data());
}

// -------------------------------------------------------- AddressPool ---

TEST(AddressPoolTest, AllocatesDistinctAddresses) {
  AddressPool pool{util::Rng{101}};
  std::unordered_set<MacAddress> seen;
  for (int i = 0; i < 200; ++i) {
    const auto addr = pool.allocate();
    ASSERT_TRUE(addr.has_value());
    EXPECT_TRUE(seen.insert(*addr).second) << "duplicate " << addr->to_string();
    EXPECT_TRUE(addr->is_locally_administered());
  }
  EXPECT_EQ(pool.allocated_count(), 200u);
}

TEST(AddressPoolTest, NeverHandsOutReservedAddress) {
  // Force collisions by replaying the same RNG stream the pool will use:
  // reserve the first address the pool would mint and check it skips it.
  util::Rng probe{202};
  const MacAddress first = MacAddress::random_local(probe);
  AddressPool pool{util::Rng{202}};
  pool.reserve(first);
  const auto addr = pool.allocate();
  ASSERT_TRUE(addr.has_value());
  EXPECT_NE(*addr, first);
}

TEST(AddressPoolTest, ReleaseMakesAddressReusable) {
  AddressPool pool{util::Rng{303}};
  const auto addr = pool.allocate();
  ASSERT_TRUE(addr.has_value());
  EXPECT_TRUE(pool.is_allocated(*addr));
  EXPECT_TRUE(pool.release(*addr));
  EXPECT_FALSE(pool.is_allocated(*addr));
  EXPECT_FALSE(pool.release(*addr));  // double release reports failure
}

TEST(AddressPoolTest, AllocateNAllOrNothing) {
  AddressPool pool{util::Rng{404}};
  const auto addrs = pool.allocate_n(5);
  ASSERT_TRUE(addrs.has_value());
  EXPECT_EQ(addrs->size(), 5u);
  std::unordered_set<MacAddress> set{addrs->begin(), addrs->end()};
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(pool.allocated_count(), 5u);
}

TEST(AddressPoolTest, CollisionProbabilityMatchesBirthdayBound) {
  EXPECT_DOUBLE_EQ(AddressPool::collision_probability(0), 0.0);
  EXPECT_DOUBLE_EQ(AddressPool::collision_probability(1), 0.0);
  // n=2: exactly 1/2^48.
  EXPECT_NEAR(AddressPool::collision_probability(2), 3.5527e-15, 1e-18);
  // Small networks (paper's argument): even 10k addresses ~ 1.8e-7.
  const double p_small = AddressPool::collision_probability(10'000);
  EXPECT_LT(p_small, 1e-6);
  // Monotone in n.
  EXPECT_LT(AddressPool::collision_probability(100),
            AddressPool::collision_probability(1'000));
}

// -------------------------------------------------------------- crypto ---

TEST(CryptoTest, EncryptDecryptRoundTrip) {
  const SymmetricKey key{0xDEADBEEF, 0xCAFEBABE};
  StreamCipher cipher{key};
  const std::vector<std::uint8_t> msg{1, 2, 3, 200, 255, 0, 42};
  const auto ct = cipher.encrypt(msg, /*nonce=*/7);
  EXPECT_NE(ct, msg);
  const auto pt = cipher.decrypt(ct, 7);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(CryptoTest, WrongKeyFails) {
  StreamCipher alice{SymmetricKey{1, 2}};
  StreamCipher eve{SymmetricKey{1, 3}};
  const std::vector<std::uint8_t> msg{10, 20, 30};
  const auto ct = alice.encrypt(msg, 99);
  EXPECT_FALSE(eve.decrypt(ct, 99).has_value());
}

TEST(CryptoTest, WrongNonceFails) {
  StreamCipher cipher{SymmetricKey{5, 6}};
  const auto ct = cipher.encrypt({1, 2, 3}, 100);
  EXPECT_FALSE(cipher.decrypt(ct, 101).has_value());
}

TEST(CryptoTest, TamperedCiphertextFails) {
  StreamCipher cipher{SymmetricKey{5, 6}};
  auto ct = cipher.encrypt({1, 2, 3, 4, 5}, 100);
  ct[2] ^= 0x01;
  EXPECT_FALSE(cipher.decrypt(ct, 100).has_value());
}

TEST(CryptoTest, TruncatedCiphertextFails) {
  StreamCipher cipher{SymmetricKey{5, 6}};
  const std::vector<std::uint8_t> tooShort{1, 2, 3};
  EXPECT_FALSE(cipher.decrypt(tooShort, 0).has_value());
}

TEST(CryptoTest, EmptyPlaintextRoundTrips) {
  StreamCipher cipher{SymmetricKey{7, 8}};
  const auto ct = cipher.encrypt({}, 1);
  EXPECT_EQ(ct.size(), 8u);  // tag only
  const auto pt = cipher.decrypt(ct, 1);
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(pt->empty());
}

TEST(CryptoTest, CiphertextDiffersAcrossNonces) {
  StreamCipher cipher{SymmetricKey{9, 10}};
  const std::vector<std::uint8_t> msg{1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_NE(cipher.encrypt(msg, 1), cipher.encrypt(msg, 2));
}

TEST(CryptoTest, NonceGeneratorNeverRepeatsNearTerm) {
  NonceGenerator gen{12345};
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(gen.next()).second);
  }
}

}  // namespace
}  // namespace reshape::mac
