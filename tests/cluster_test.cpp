// Tests for src/cluster: the ShardRouter policies, the replicated
// AcceleratorPool, the content-addressed DesignCache and the binary
// design codec it persists through (core/design_serde).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/accelerator_pool.h"
#include "cluster/design_cache.h"
#include "cluster/shard_router.h"
#include "common/error.h"
#include "common/hash.h"
#include "core/design_json.h"
#include "core/design_serde.h"
#include "core/generator.h"
#include "frontend/network_def.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "rtl/verilog.h"
#include "sim/host_runtime.h"

namespace db {
namespace {

using cluster::DesignCache;
using cluster::DesignKey;
using cluster::MakeDesignKey;
using cluster::RouterPolicy;
using cluster::ShardRouter;

// ---------------------------------------------------------------- router

TEST(ShardRouter, PolicyNamesRoundTrip) {
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kHashAffinity})
    EXPECT_EQ(cluster::ParseRouterPolicy(cluster::RouterPolicyName(policy)),
              policy);
  EXPECT_THROW(cluster::ParseRouterPolicy("bogus"), Error);
}

TEST(ShardRouter, RoundRobinCyclesThroughReplicas) {
  ShardRouter router(RouterPolicy::kRoundRobin, 3);
  const std::vector<std::int64_t> free_cycle{100, 0, 50};
  for (int expect : {0, 1, 2, 0, 1, 2, 0})
    EXPECT_EQ(router.Route(free_cycle), expect);  // load is ignored
}

TEST(ShardRouter, LeastLoadedPicksEarliestFreeLowestIndex) {
  ShardRouter router(RouterPolicy::kLeastLoaded, 4);
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{40, 10, 30, 20}), 1);
  // Ties break towards the lowest index, so placement is deterministic.
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{10, 10, 10, 10}), 0);
  EXPECT_EQ(router.Route(std::vector<std::int64_t>{50, 20, 20, 90}), 1);
}

TEST(ShardRouter, HashAffinityPinsOneReplica) {
  ShardRouter router(RouterPolicy::kHashAffinity, 4, /*affinity_hash=*/7);
  const std::vector<std::int64_t> free_cycle{0, 0, 0, 0};
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(router.Route(free_cycle), 3);  // 7 % 4, regardless of load
}

TEST(ShardRouter, RejectsMismatchedFreeCycleVector) {
  ShardRouter router(RouterPolicy::kLeastLoaded, 2);
  EXPECT_THROW(router.Route(std::vector<std::int64_t>{0, 0, 0}),
               std::logic_error);
}

// ------------------------------------------------------- pool + replicas

struct GeneratedFixture {
  GeneratedFixture()
      : def(ParseNetworkDef(ZooModelPrototxt(ZooModel::kAnn0Fft))),
        net(Network::Build(def)),
        constraint(DbConstraint()),
        design(GenerateAccelerator(net, constraint)) {}

  NetworkDef def;
  Network net;
  DesignConstraint constraint;
  AcceleratorDesign design;
};

GeneratedFixture& Fixture() {
  static GeneratedFixture* fixture = new GeneratedFixture;
  return *fixture;
}

Tensor FixtureInput(const Network& net, std::uint64_t seed) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  Tensor t(Shape{s.channels, s.height, s.width});
  Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

TEST(AcceleratorPool, ReplicasProduceBitIdenticalOutputs) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  cluster::AcceleratorPool pool(fx.net, fx.design, provisioned, 3);
  ASSERT_EQ(pool.size(), 3);

  const Tensor input = FixtureInput(fx.net, 42);
  std::vector<Tensor> outputs(3);
  for (int r = 0; r < 3; ++r)
    pool.Post(r, [&pool, &outputs, &input, r] {
      cluster::Replica& rep = pool.replica(r);
      outputs[static_cast<std::size_t>(r)] =
          rep.context->Run(rep.image, input).output;
    });
  pool.Close();
  pool.Join();
  ASSERT_GT(outputs[0].size(), 0);
  EXPECT_EQ(outputs[0].storage(), outputs[1].storage());
  EXPECT_EQ(outputs[0].storage(), outputs[2].storage());
}

TEST(AcceleratorPool, ReplicasShareOneWeightSnapshot) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  cluster::AcceleratorPool pool(fx.net, fx.design, provisioned, 3);
  pool.Close();
  pool.Join();
  const RawWeights* shared = pool.replica(0).context->raw_weights().get();
  ASSERT_NE(shared, nullptr);
  for (int r = 1; r < pool.size(); ++r)
    EXPECT_EQ(pool.replica(r).context->raw_weights().get(), shared);
}

TEST(AcceleratorPool, LanesPreserveFifoOrderPerReplica) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  cluster::AcceleratorPool pool(fx.net, fx.design, provisioned, 2);

  std::vector<int> lane0, lane1;
  for (int i = 0; i < 16; ++i) {
    pool.Post(0, [&lane0, i] { lane0.push_back(i); });
    pool.Post(1, [&lane1, i] { lane1.push_back(i); });
  }
  pool.Close();
  pool.Join();
  ASSERT_EQ(lane0.size(), 16u);
  ASSERT_EQ(lane1.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(lane0[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(lane1[static_cast<std::size_t>(i)], i);
  }
}

TEST(AcceleratorPool, FaultOnOneReplicaDoesNotPerturbSiblings) {
  GeneratedFixture& fx = Fixture();
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  const MemoryImage provisioned =
      BuildHostImage(fx.net, fx.design, weights);
  cluster::AcceleratorPool pool(fx.net, fx.design, provisioned, 2);
  pool.Close();
  pool.Join();
  // Corrupt replica 0's private image; replica 1's bytes must be
  // untouched (private copies, never shared).
  pool.replica(0).image.FlipBit(0, 3);
  EXPECT_NE(pool.replica(0).image.bytes(), pool.replica(1).image.bytes());
  EXPECT_EQ(pool.replica(1).image.bytes(), provisioned.bytes());
}

// ----------------------------------------------------------- design key

TEST(DesignCache, KeyIsStableAcrossScriptFieldReordering) {
  // Two scripts that differ only in field order inside blocks must
  // canonicalize to the same key: the digest hashes the canonical
  // serialisation, not the authored bytes.
  const char* kOrdered = R"(
name: "tiny"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 8
input_dim: 8
layers {
  name: "fc1"
  type: INNER_PRODUCT
  bottom: "data"
  top: "fc1"
  inner_product_param {
    num_output: 4
  }
}
)";
  const char* kReordered = R"(
name: "tiny"
input: "data"
input_dim: 1
input_dim: 1
input_dim: 8
input_dim: 8
layers {
  top: "fc1"
  bottom: "data"
  type: INNER_PRODUCT
  inner_product_param {
    num_output: 4
  }
  name: "fc1"
}
)";
  const NetworkDef a = ParseNetworkDef(kOrdered);
  const NetworkDef b = ParseNetworkDef(kReordered);
  const DesignConstraint constraint;
  const DesignKey ka = MakeDesignKey(a, constraint);
  const DesignKey kb = MakeDesignKey(b, constraint);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(NetworkDefDigest(a), NetworkDefDigest(b));
}

TEST(DesignCache, KeySeparatesNetworkAndConstraint) {
  GeneratedFixture& fx = Fixture();
  DesignConstraint other = fx.constraint;
  other.bit_width = 8;
  other.frac_bits = 4;
  const DesignKey a = MakeDesignKey(fx.def, fx.constraint);
  const DesignKey b = MakeDesignKey(fx.def, other);
  EXPECT_NE(a.canonical, b.canonical);
  EXPECT_NE(a.hash, b.hash);
  EXPECT_EQ(cluster::DesignKeyHex(a).size(), 16u);
}

// --------------------------------------------------------------- cache

TEST(DesignCache, HitSkipsTheGenerator) {
  GeneratedFixture& fx = Fixture();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  DesignCache::Options options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  DesignCache cache(options);
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);

  const auto first = cache.GetOrGenerate(key, fx.net, fx.constraint,
                                         &tracer);
  const std::int64_t toolchain_end = tracer.TrackEnd("toolchain");
  EXPECT_GT(toolchain_end, 0);  // the miss ran the generator phases
  EXPECT_EQ(metrics.CounterValue("cluster.cache.miss"), 1);

  const auto second = cache.GetOrGenerate(key, fx.net, fx.constraint,
                                          &tracer);
  // Same immutable object, and not a single new toolchain span: the
  // generator did not run again.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(tracer.TrackEnd("toolchain"), toolchain_end);
  EXPECT_EQ(metrics.CounterValue("cluster.cache.hit"), 1);

  // The lookup outcomes are spans on the "cluster" track.
  int cluster_spans = 0;
  for (const obs::Span& span : tracer.Sorted())
    if (span.track == "cluster") ++cluster_spans;
  EXPECT_EQ(cluster_spans, 2);  // one miss + one hit
}

TEST(DesignCache, ForgedHashCollisionIsRejectedByFullCompare) {
  GeneratedFixture& fx = Fixture();
  DesignCache cache;
  const DesignKey real = MakeDesignKey(fx.def, fx.constraint);
  cache.Insert(real, fx.design);

  // Same digest, different canonical content: the bucket matches but
  // the full-key compare must refuse to alias.
  DesignKey forged;
  forged.hash = real.hash;
  forged.canonical = real.canonical + "\n# not the same network\n";
  EXPECT_EQ(cache.Lookup(forged), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);

  // Both keys coexist in the bucket without clobbering each other.
  cache.Insert(forged, fx.design);
  EXPECT_NE(cache.Lookup(real), nullptr);
  EXPECT_NE(cache.Lookup(forged), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DesignCache, LruEvictsTheColdestEntry) {
  GeneratedFixture& fx = Fixture();
  DesignCache::Options options;
  options.capacity = 2;
  DesignCache cache(options);

  auto forge = [](std::uint64_t hash, const char* canonical) {
    DesignKey key;
    key.hash = hash;
    key.canonical = canonical;
    return key;
  };
  const DesignKey k1 = forge(1, "one");
  const DesignKey k2 = forge(2, "two");
  const DesignKey k3 = forge(3, "three");
  const auto d1 = cache.Insert(k1, fx.design);
  cache.Insert(k2, fx.design);
  EXPECT_NE(cache.Lookup(k1), nullptr);  // refresh k1: k2 is now coldest
  cache.Insert(k3, fx.design);           // evicts k2
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  // Eviction never invalidates a handle a caller still holds.
  EXPECT_GT(DesignToJson(*d1).size(), 0u);
}

TEST(DesignCache, DiskPersistenceSurvivesANewCacheInstance) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_test";
  std::filesystem::remove_all(dir);
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);

  {
    DesignCache::Options options;
    options.directory = dir.string();
    DesignCache cache(options);
    cache.GetOrGenerate(key, fx.net, fx.constraint);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().disk_writes, 1);
  }

  // A fresh cache (new process, conceptually) warm-starts from disk —
  // the acceptance criterion's "repeat invocations skip NN-Gen".
  DesignCache::Options options;
  options.directory = dir.string();
  DesignCache cache(options);
  const auto loaded = cache.Lookup(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(cache.stats().disk_hits, 1);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(DesignToJson(*loaded), DesignToJson(fx.design));
  EXPECT_EQ(EmitVerilog(loaded->rtl), EmitVerilog(fx.design.rtl));

  // A corrupt entry degrades to a miss, never a wrong design.
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- design serde

TEST(DesignSerde, RoundTripPreservesTheWholeDesign) {
  GeneratedFixture& fx = Fixture();
  const std::string bytes = SerializeDesign(fx.design);
  const AcceleratorDesign copy = DeserializeDesign(bytes);
  // The JSON export and the emitted RTL cover every field the design
  // bundle publishes; byte equality on both is the round-trip contract.
  EXPECT_EQ(DesignToJson(copy), DesignToJson(fx.design));
  EXPECT_EQ(EmitVerilog(copy.rtl), EmitVerilog(fx.design.rtl));
  EXPECT_EQ(copy.schedule.ToString(), fx.design.schedule.ToString());
  EXPECT_EQ(copy.memory_map.ToString(), fx.design.memory_map.ToString());
  EXPECT_EQ(copy.agu_program.ToString(), fx.design.agu_program.ToString());
}

TEST(DesignSerde, RoundTrippedDesignSimulatesBitIdentically) {
  GeneratedFixture& fx = Fixture();
  const AcceleratorDesign copy =
      DeserializeDesign(SerializeDesign(fx.design));
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(fx.net, rng);
  MemoryImage image_a = BuildHostImage(fx.net, fx.design, weights);
  MemoryImage image_b = BuildHostImage(fx.net, copy, weights);
  const Tensor input = FixtureInput(fx.net, 7);
  const Tensor out_a =
      RunSystem(fx.net, fx.design, image_a, input).output;
  const Tensor out_b = RunSystem(fx.net, copy, image_b, input).output;
  EXPECT_EQ(out_a.storage(), out_b.storage());
}

TEST(DesignSerde, RejectsCorruptPayloads) {
  GeneratedFixture& fx = Fixture();
  const std::string bytes = SerializeDesign(fx.design);
  EXPECT_THROW(DeserializeDesign(bytes.substr(0, bytes.size() / 2)),
               Error);                                   // truncated
  EXPECT_THROW(DeserializeDesign(bytes + "x"), Error);   // trailing bytes
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW(DeserializeDesign(wrong_magic), Error);   // bad magic
  EXPECT_THROW(DeserializeDesign(std::string()), Error); // empty
}

/// Offset of the version word in a SerializeDesign payload: it follows
/// the length-prefixed magic tag (u64 length, four bytes).
constexpr std::size_t kVersionWordOffset = 8 + 4;

/// Overwrite the payload's version word at `offset` with `version`.
void SetVersionWord(std::string& bytes, std::size_t offset,
                    std::uint32_t version) {
  ASSERT_LE(offset + 4, bytes.size());
  std::uint32_t current = 0;
  for (int i = 0; i < 4; ++i)
    current |= static_cast<std::uint32_t>(
                   static_cast<std::uint8_t>(bytes[offset + i]))
               << (8 * i);
  ASSERT_EQ(current, kDesignSerdeVersion);
  for (int i = 0; i < 4; ++i)
    bytes[offset + i] = static_cast<char>((version >> (8 * i)) & 0xff);
}

TEST(DesignSerde, RejectsThePreviousVersion) {
  // Version 2 stored one schedule step and one crossbar setting per fold
  // segment; its bytes must never decode as per-layer runs.
  GeneratedFixture& fx = Fixture();
  std::string bytes = SerializeDesign(fx.design);
  SetVersionWord(bytes, kVersionWordOffset, 2);
  try {
    DeserializeDesign(bytes);
    ADD_FAILURE() << "decoded a version-2 payload";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(DesignSerde, StaleVersionCacheEntryIsRegenerated) {
  GeneratedFixture& fx = Fixture();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "db_design_cache_stale_test";
  std::filesystem::remove_all(dir);
  const DesignKey key = MakeDesignKey(fx.def, fx.constraint);
  DesignCache::Options options;
  options.directory = dir.string();
  {
    DesignCache cache(options);
    cache.Insert(key, fx.design);
    ASSERT_EQ(cache.stats().disk_writes, 1);
  }

  // Rewrite the entry's payload as an older build would have tagged it.
  // Entry layout: canonical length (u64) | canonical text | payload.
  const std::filesystem::path entry = dir / (DesignKeyHex(key) + ".design");
  std::string bytes;
  {
    std::ifstream in(entry, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  SetVersionWord(bytes, 8 + key.canonical.size() + kVersionWordOffset, 2);
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  DesignCache cache(options);
  EXPECT_EQ(cache.Lookup(key), nullptr);  // a miss, not a misdecode
  EXPECT_EQ(cache.stats().disk_hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);
  const auto regenerated = cache.GetOrGenerate(key, fx.net, fx.constraint);
  EXPECT_EQ(cache.stats().inserts, 1);
  EXPECT_EQ(cache.stats().disk_writes, 1);
  EXPECT_EQ(DesignToJson(*regenerated), DesignToJson(fx.design));

  // The rewritten entry now serves a fresh cache from disk.
  DesignCache warm(options);
  ASSERT_NE(warm.Lookup(key), nullptr);
  EXPECT_EQ(warm.stats().disk_hits, 1);
  std::filesystem::remove_all(dir);
}

TEST(Fnv1a, MatchesKnownVectors) {
  // Reference values for the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(Fnv1a64("foobar"), 9625390261332436968ull);
}

}  // namespace
}  // namespace db
