// Unit tests for src/common: RNG determinism and distributions, streaming
// stats, percentiles, EWMA, token bucket, union-find, schedules/tables, and
// the allocation-free building blocks (InlineFunction, SlabPool, RingQueue).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/object_pool.hpp"
#include "common/ring_queue.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/token_bucket.hpp"
#include "common/union_find.hpp"

namespace topfull {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(Seconds(1), 1'000'000);
  EXPECT_EQ(Millis(1), 1'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(12.0)), 12.0);
  EXPECT_EQ(Seconds(0.001), Millis(1));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  StreamingStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.15);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  StreamingStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(RngTest, LogNormalMeanMatchesFormula) {
  Rng rng(15);
  const double mu = std::log(10.0) - 0.5 * 0.25 * 0.25;
  StreamingStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.LogNormal(mu, 0.25));
  EXPECT_NEAR(stats.mean(), 10.0, 0.3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(42), parent2(42);
  Rng child1 = parent1.Fork("worker");
  Rng child2 = parent2.Fork("worker");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child1.NextU64(), child2.NextU64());
  Rng other = parent1.Fork("other");
  EXPECT_NE(other.NextU64(), child1.NextU64());
}

TEST(StreamingStatsTest, MeanVarianceMinMax) {
  StreamingStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats stats;
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.count(), 0u);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> values{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 25.0);
}

TEST(PercentileTest, EmptyReturnsFallback) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0, -1.0), -1.0);
}

TEST(PercentileTest, InPlaceSortsAndMatchesCopyingForm) {
  const std::vector<double> values = {9.0, 1.0, 5.0, 3.0, 7.0};
  std::vector<double> buffer = values;
  EXPECT_DOUBLE_EQ(PercentileInPlace(buffer, 50.0), Percentile(values, 50.0));
  EXPECT_TRUE(std::is_sorted(buffer.begin(), buffer.end()));
  // The sorted buffer can then serve any number of quantile reads.
  EXPECT_DOUBLE_EQ(PercentileSorted(buffer, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(buffer, 100.0), 9.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(buffer, 95.0), Percentile(values, 95.0));
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(PercentileInPlace(empty, 50.0, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(empty, 50.0, -3.0), -3.0);
}

TEST(PercentileTest, SingleSampleForEveryP) {
  // Regression: a one-completion window must report that latency for any
  // quantile, including the p0/p100 extremes and out-of-range p.
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0, -5.0, 250.0}) {
    EXPECT_DOUBLE_EQ(Percentile({7.5}, p), 7.5) << "p=" << p;
  }
}

TEST(PercentileTest, P0AndP100AreMinAndMax) {
  const std::vector<double> values = {4.0, -2.0, 11.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 11.0);
  // Out-of-range p clamps to the extremes instead of indexing out of range.
  EXPECT_DOUBLE_EQ(Percentile(values, -40.0), -2.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 700.0), 11.0);
}

TEST(PercentileTest, NonFinitePReturnsFallback) {
  // Regression: a NaN rank (e.g. computed from a zero-completion window)
  // must yield the fallback, not UB from clamping/casting NaN.
  const std::vector<double> values = {1.0, 2.0, 3.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(Percentile(values, nan, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, inf, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, -inf, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, nan, -4.0), -4.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(values, nan, -5.0), -5.0);
}

TEST(WindowedSamplesTest, ExpiresOldSamples) {
  WindowedSamples window(Seconds(1));
  window.Add(Millis(100), 1.0);
  window.Add(Millis(600), 2.0);
  window.Add(Millis(1500), 3.0);
  window.Expire(Millis(1500));  // cutoff 500 ms: only the t=100ms sample goes
  EXPECT_EQ(window.Count(), 2u);
  EXPECT_DOUBLE_EQ(window.Mean(), 2.5);
}

TEST(WindowedSamplesTest, PercentileOfLiveWindow) {
  WindowedSamples window(Seconds(10));
  for (int i = 1; i <= 100; ++i) window.Add(Millis(i), static_cast<double>(i));
  EXPECT_NEAR(window.Percentile(95.0), 95.05, 0.5);
}

TEST(EwmaTest, ConvergesTowardsConstant) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.initialized());
  ewma.Add(10.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
  for (int i = 0; i < 20; ++i) ewma.Add(20.0);
  EXPECT_NEAR(ewma.value(), 20.0, 0.01);
}

TEST(TokenBucketTest, AdmitsUpToBurstInstantly) {
  TokenBucket bucket(100.0, 5.0);
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += bucket.TryAdmit(0) ? 1 : 0;
  EXPECT_EQ(admitted, 5);
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket bucket(100.0, 5.0);
  for (int i = 0; i < 5; ++i) bucket.TryAdmit(0);
  EXPECT_FALSE(bucket.TryAdmit(0));
  // After 50 ms at 100 rps, ~5 tokens are back.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += bucket.TryAdmit(Millis(50)) ? 1 : 0;
  EXPECT_EQ(admitted, 5);
}

TEST(TokenBucketTest, LongRunAdmissionTracksRate) {
  TokenBucket bucket(250.0, 10.0);
  int admitted = 0;
  for (SimTime t = 0; t < Seconds(10); t += Millis(1)) {
    admitted += bucket.TryAdmit(t) ? 1 : 0;
  }
  EXPECT_NEAR(admitted, 2500, 15);
}

TEST(TokenBucketTest, ZeroRateAdmitsOnlyBurst) {
  TokenBucket bucket(0.0, 3.0);
  int admitted = 0;
  for (SimTime t = 0; t < Seconds(5); t += Millis(10)) {
    admitted += bucket.TryAdmit(t) ? 1 : 0;
  }
  EXPECT_EQ(admitted, 3);
}

TEST(TokenBucketTest, SetRateTakesEffect) {
  TokenBucket bucket(10.0, 1.0);
  bucket.SetRate(1000.0);
  int admitted = 0;
  for (SimTime t = 0; t < Seconds(1); t += Millis(1)) {
    admitted += bucket.TryAdmit(t) ? 1 : 0;
  }
  EXPECT_NEAR(admitted, 1000, 10);
}

TEST(TokenBucketTest, ConstructorClampsRateAndBurst) {
  TokenBucket bucket(-5.0, 0.25);  // rate < 0 -> 0, burst < 1 -> 1
  EXPECT_EQ(bucket.rate(), 0.0);
  EXPECT_EQ(bucket.burst(), 1.0);
  EXPECT_EQ(bucket.PeekTokens(0), 1.0);  // starts full
  EXPECT_TRUE(bucket.TryAdmit(0));       // spends the single token
  EXPECT_FALSE(bucket.TryAdmit(0));      // zero rate: never refills
  EXPECT_FALSE(bucket.TryAdmit(Seconds(3600)));
}

TEST(TokenBucketTest, PeekTokensDoesNotMutate) {
  TokenBucket bucket(100.0, 10.0);
  ASSERT_TRUE(bucket.TryAdmit(1000));
  const double before = bucket.PeekTokens(Millis(500));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bucket.PeekTokens(Millis(500)), before);
  // The preview looked half a second ahead; the real balance is still 9.
  EXPECT_EQ(bucket.PeekTokens(1000), 9.0);
}

TEST(UnionFindTest, BasicUnions) {
  UnionFind dsu(6);
  EXPECT_TRUE(dsu.Union(0, 1));
  EXPECT_TRUE(dsu.Union(2, 3));
  EXPECT_FALSE(dsu.Union(1, 0));
  EXPECT_TRUE(dsu.Connected(0, 1));
  EXPECT_FALSE(dsu.Connected(0, 2));
  EXPECT_TRUE(dsu.Union(1, 3));
  EXPECT_TRUE(dsu.Connected(0, 2));
  EXPECT_EQ(dsu.SizeOf(3), 4u);
  EXPECT_EQ(dsu.SizeOf(5), 1u);
}

TEST(TableTest, RendersAlignedColumns) {
  Table table("caption");
  table.SetHeader({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow("b", {2.5}, 1);
  const std::string out = table.Render();
  EXPECT_NE(out.find("caption"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(FmtTest, Precision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(2.0, 0), "2");
}

TEST(InlineFunctionTest, InvokesStoredCallable) {
  InlineFunction<int(int), 32> f = [](int x) { return x * 2; };
  ASSERT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(21), 42);
}

TEST(InlineFunctionTest, EmptyAndNullptrAreFalsy) {
  InlineFunction<void(), 32> f;
  EXPECT_FALSE(static_cast<bool>(f));
  InlineFunction<void(), 32> g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  int calls = 0;
  InlineFunction<void(), 32> f = [&calls]() { ++calls; };
  InlineFunction<void(), 32> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(calls, 1);
  f = std::move(g);  // move-assign back
  EXPECT_FALSE(static_cast<bool>(g));
  f();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunctionTest, CopiesLvalueCallable) {
  int calls = 0;
  auto lambda = [&calls]() { ++calls; };
  InlineFunction<void(), 32> f = lambda;  // lambda itself stays usable
  f();
  lambda();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunctionTest, DestroysNonTrivialCaptureExactlyOnce) {
  // A shared_ptr capture counts destructions via use_count.
  auto token = std::make_shared<int>(7);
  {
    InlineFunction<int(), 32> f = [token]() { return *token; };
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(f(), 7);
    InlineFunction<int(), 32> g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    EXPECT_EQ(g(), 7);
    g = nullptr;
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunctionTest, MoveOnlyCaptureWorks) {
  auto owned = std::make_unique<int>(5);
  InlineFunction<int(), 32> f = [p = std::move(owned)]() { return *p; };
  EXPECT_EQ(f(), 5);
  InlineFunction<int(), 32> g = std::move(f);
  EXPECT_EQ(g(), 5);
}

/// A pooled record: a payload, a generation the owner bumps on every free,
/// and the index the pool writes.
struct PoolRec {
  std::uint64_t value = 0;
  std::uint32_t gen = 0;
  std::uint32_t pool_index = 0;
};

TEST(SlabPoolTest, ReusesFreedRecordsLifo) {
  SlabPool<PoolRec> pool;
  PoolRec* a = pool.Alloc();
  PoolRec* b = pool.Alloc();
  EXPECT_EQ(pool.live(), 2u);
  pool.Free(a);
  EXPECT_EQ(pool.live(), 1u);
  PoolRec* c = pool.Alloc();
  EXPECT_EQ(c, a);  // LIFO free list hands the hot record back first
  pool.Free(b);
  pool.Free(c);
  EXPECT_EQ(pool.live(), 0u);
  // Last freed, first reused: c (= a), then b.
  EXPECT_EQ(pool.Alloc(), c);
  EXPECT_EQ(pool.Alloc(), b);
}

TEST(SlabPoolTest, AddressesStableAcrossGrowth) {
  SlabPool<PoolRec> pool;
  std::vector<PoolRec*> ptrs;
  for (int i = 0; i < 2000; ++i) {  // spans many slabs
    ptrs.push_back(pool.Alloc());
    ptrs.back()->value = static_cast<std::uint64_t>(i);
  }
  EXPECT_GE(pool.capacity(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)]->value, static_cast<std::uint64_t>(i));
  }
  for (auto* p : ptrs) pool.Free(p);
  EXPECT_EQ(pool.live(), 0u);
  // Steady state: capacity stays put, no new slabs.
  const std::size_t cap = pool.capacity();
  for (int i = 0; i < 2000; ++i) ptrs[static_cast<std::size_t>(i)] = pool.Alloc();
  EXPECT_EQ(pool.capacity(), cap);
}

// Fresh records come in index order; an index names its record for the
// pool's whole life, and the record keeps its fields — its generation too —
// through Free and the next Alloc.
TEST(SlabPoolTest, PoolIndexAndGenerationSurviveRecycling) {
  SlabPool<PoolRec> pool;
  std::vector<PoolRec*> ptrs;
  for (std::uint32_t i = 0; i < 600; ++i) {  // three slabs
    ptrs.push_back(pool.Alloc());
    EXPECT_EQ(ptrs.back()->pool_index, i);
    EXPECT_EQ(pool.At(i), ptrs.back());
  }
  for (PoolRec* p : ptrs) {
    ++p->gen;
    pool.Free(p);
  }
  for (int round = 0; round < 3; ++round) {
    PoolRec* p = pool.Alloc();
    EXPECT_EQ(p, ptrs.back());  // LIFO: the last freed
    EXPECT_EQ(p->pool_index, 599u);
    EXPECT_EQ(p->gen, static_cast<std::uint32_t>(round + 1));
    ++p->gen;
    pool.Free(p);
  }
  for (std::uint32_t i = 0; i < 600; ++i) {
    EXPECT_EQ(pool.At(i)->pool_index, i);
    EXPECT_EQ(pool.At(i), ptrs[i]);
  }
  EXPECT_EQ(pool.capacity(), 768u);
}

TEST(RingQueueTest, FifoOrderAcrossGrowthAndWraparound) {
  RingQueue<int> q;
  int next_in = 0, next_out = 0;
  // Interleave pushes and pops so head/tail wrap while the buffer grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5 && !q.empty(); ++i) {
      EXPECT_EQ(q.front(), next_out);
      q.pop_front();
      ++next_out;
    }
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueueTest, AtIndexesFromFront) {
  RingQueue<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q.at(i), static_cast<int>(i) + 6);
  }
}

TEST(RingQueueTest, PopReleasesHeldResources) {
  RingQueue<std::shared_ptr<int>> q;
  auto token = std::make_shared<int>(1);
  q.push_back(token);
  EXPECT_EQ(token.use_count(), 2);
  q.pop_front();  // popped slot must not keep the shared_ptr alive
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace topfull
