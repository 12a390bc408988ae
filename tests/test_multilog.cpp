// Tests for the multi-log machinery: the per-interval message store (top
// pages, batched eviction, generations, async drain), sort-and-group,
// the active set, the history predictor, and the page-utilization tracker.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "multilog/active_set.hpp"
#include "multilog/log_codec.hpp"
#include "multilog/multilog_store.hpp"
#include "multilog/page_util.hpp"
#include "multilog/predictor.hpp"
#include "multilog/record.hpp"
#include "multilog/sort_group.hpp"
#include "ssd/async_io.hpp"

namespace mlvc::multilog {
namespace {

struct Env {
  ssd::TempDir dir;
  ssd::Storage storage;
  Env() : storage(dir.path(), [] {
            ssd::DeviceConfig d;
            d.page_size = 4_KiB;
            return d;
          }()) {}
};

using TestRecord = Record<std::uint32_t>;

std::vector<TestRecord> load_records(MultiLogStore& store, IntervalId i) {
  std::vector<std::byte> bytes;
  store.load_interval(i, bytes);
  return decode_records<std::uint32_t>(bytes);
}

// ---- MultiLogStore ---------------------------------------------------------

TEST(MultiLogStore, MessagesLandInDestinationIntervalLog) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(100, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});

  append_record<std::uint32_t>(store, 5, 100);    // interval 0
  append_record<std::uint32_t>(store, 15, 200);   // interval 1
  append_record<std::uint32_t>(store, 17, 300);   // interval 1
  append_record<std::uint32_t>(store, 99, 400);   // interval 9

  EXPECT_EQ(store.produced_count(0), 1u);
  EXPECT_EQ(store.produced_count(1), 2u);
  EXPECT_EQ(store.produced_count(9), 1u);
  EXPECT_EQ(store.produced_count(5), 0u);

  store.swap_generations();
  EXPECT_EQ(store.current_count(1), 2u);
  EXPECT_EQ(store.total_current_count(), 4u);

  const auto recs = load_records(store, 1);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].dst, 15u);
  EXPECT_EQ(recs[0].payload, 200u);
  EXPECT_EQ(recs[1].dst, 17u);
  EXPECT_EQ(recs[1].payload, 300u);
}

TEST(MultiLogStore, GenerationsAreIsolated) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(10, 5);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  append_record<std::uint32_t>(store, 1, 1);
  store.swap_generations();
  // New sends go to the produce generation, not the consumable one.
  append_record<std::uint32_t>(store, 1, 2);
  EXPECT_EQ(store.current_count(0), 1u);
  const auto recs = load_records(store, 0);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].payload, 1u);
  store.swap_generations();
  const auto next = load_records(store, 0);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].payload, 2u);
}

TEST(MultiLogStore, SpillsToStorageAndReloads) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(10, 5);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  // Far more than one 4 KiB top page per interval.
  constexpr std::uint32_t kN = 50000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<std::uint32_t>(store, k % 10, k);
  }
  store.swap_generations();
  EXPECT_GT(store.current_pages(0), 0u);  // something was spilled

  std::uint64_t total = 0;
  std::map<std::uint32_t, std::uint32_t> next_payload;  // per dst, expected
  for (IntervalId i = 0; i < iv.count(); ++i) {
    for (const auto& rec : load_records(store, i)) {
      // Messages to one destination arrive in append order.
      auto [it, inserted] = next_payload.try_emplace(rec.dst, rec.dst);
      EXPECT_EQ(rec.payload, it->second) << "dst " << rec.dst;
      it->second += 10;
      ++total;
    }
  }
  EXPECT_EQ(total, kN);
}

TEST(MultiLogStore, RecordsMayStraddlePages) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);
  // 12-byte records do not divide the 4096-byte page.
  struct Wide {
    std::uint32_t a, b;
  };
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = sizeof(Record<Wide>)});
  constexpr std::uint32_t kN = 3000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<Wide>(store, k % 4, {k, k * 2});
  }
  store.swap_generations();
  std::uint64_t seen = 0;
  std::vector<std::byte> bytes;
  store.load_interval(0, bytes);
  for (const auto& rec : decode_records<Wide>(bytes)) {
    EXPECT_EQ(rec.payload.b, rec.payload.a * 2);
    ++seen;
  }
  EXPECT_EQ(seen, store.current_count(0));
}

TEST(MultiLogStore, ConcurrentAppendsPreserveEveryMessage) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  constexpr int kThreads = 8, kPerThread = 5000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        for (int k = 0; k < kPerThread; ++k) {
          const auto dst = static_cast<VertexId>(rng.next_below(64));
          append_record<std::uint32_t>(store, dst,
                                       static_cast<std::uint32_t>(t));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  store.swap_generations();
  EXPECT_EQ(store.total_current_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t decoded = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    decoded += load_records(store, i).size();
  }
  EXPECT_EQ(decoded, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MultiLogStore, ConcurrentAppendsWithBackgroundEviction) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  ssd::AsyncIo io(4);
  // Tiny eviction batches so the test exercises many background writes.
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .evict_batch_pages = 2,
                       .async_io = &io});
  constexpr int kThreads = 8, kPerThread = 5000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&, t] {
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        for (int k = 0; k < kPerThread; ++k) {
          const auto dst = static_cast<VertexId>(rng.next_below(64));
          append_record<std::uint32_t>(
              store, dst, static_cast<std::uint32_t>(t * kPerThread + k));
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  store.swap_generations();

  // Replay the same per-thread RNG streams to build the expected multiset
  // per destination, then compare against what the logs actually hold.
  std::map<VertexId, std::multiset<std::uint32_t>> expected;
  for (int t = 0; t < kThreads; ++t) {
    SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
    for (int k = 0; k < kPerThread; ++k) {
      const auto dst = static_cast<VertexId>(rng.next_below(64));
      expected[dst].insert(static_cast<std::uint32_t>(t * kPerThread + k));
    }
  }
  std::map<VertexId, std::multiset<std::uint32_t>> actual;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    for (const auto& rec : load_records(store, i)) {
      EXPECT_GE(rec.dst, iv.begin(i));
      EXPECT_LT(rec.dst, iv.end(i));
      actual[rec.dst].insert(rec.payload);
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(MultiLogStore, BackgroundEvictionMatchesInlineLayout) {
  // Offsets (and so page numbers) are assigned synchronously even when the
  // data is written by I/O threads, so a single-threaded append sequence
  // must yield byte-identical logs and identical page accounting either way.
  Env inline_env;
  Env async_env;
  ssd::AsyncIo io(2);
  const auto iv = graph::VertexIntervals::uniform(40, 4);
  MultiLogStore inline_store(inline_env.storage, "t", iv,
                             {.record_size = 8, .evict_batch_pages = 2});
  MultiLogStore async_store(async_env.storage, "t", iv,
                            {.record_size = 8, .evict_batch_pages = 2,
                             .async_io = &io});
  SplitMix64 rng(7);
  for (std::uint32_t k = 0; k < 30000; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(40));
    append_record<std::uint32_t>(inline_store, dst, k);
    append_record<std::uint32_t>(async_store, dst, k);
  }
  inline_store.swap_generations();
  async_store.swap_generations();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<std::byte> a;
    std::vector<std::byte> b;
    inline_store.load_interval(i, a);
    async_store.load_interval(i, b);
    EXPECT_EQ(a, b) << "interval " << i;
  }
  const auto a_io = inline_env.storage.stats().snapshot();
  const auto b_io = async_env.storage.stats().snapshot();
  EXPECT_EQ(a_io.total_pages_written(), b_io.total_pages_written());
  EXPECT_EQ(a_io.total_pages_read(), b_io.total_pages_read());
}

TEST(MultiLogStore, DrainProduceForAsyncMode) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  for (std::uint32_t k = 0; k < 1000; ++k) {
    append_record<std::uint32_t>(store, 15, k);  // interval 1
  }
  std::vector<std::byte> bytes;
  const auto drained = store.drain_produce_interval(1, bytes);
  EXPECT_EQ(drained, 1000u);
  EXPECT_EQ(decode_records<std::uint32_t>(bytes).size(), 1000u);
  EXPECT_EQ(store.produced_count(1), 0u);
  // Drained messages must not reappear after the swap.
  store.swap_generations();
  EXPECT_EQ(store.current_count(1), 0u);
}

TEST(MultiLogStore, BatchedEvictionKeepsAccountingExact) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(16, 4);
  MultiLogConfig cfg{.record_size = 8};
  cfg.evict_batch_pages = 8;
  MultiLogStore store(env.storage, "t", iv, cfg);
  for (std::uint32_t k = 0; k < 40000; ++k) {
    append_record<std::uint32_t>(store, k % 16, k);
  }
  store.swap_generations();
  std::uint64_t total = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    total += load_records(store, i).size();
  }
  EXPECT_EQ(total, 40000u);
}

TEST(MultiLogStore, FlushedPagesHoldWholeRecords) {
  // 12-byte records don't divide the 4096-byte page; each flushed page must
  // hold floor(4096/12) = 341 whole records with a zero slack tail, so a
  // single page decodes cleanly on its own (no split record at the seam).
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);  // one interval
  struct Wide {
    std::uint32_t a, b;
  };
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = sizeof(Record<Wide>)});
  EXPECT_EQ(store.usable_page_bytes(), (4096u / 12u) * 12u);
  constexpr std::uint32_t kN = 1000;
  for (std::uint32_t k = 0; k < kN; ++k) {
    append_record<Wide>(store, k % 4, {k, k * 2});
  }
  store.swap_generations();
  const std::uint64_t per_page = store.usable_page_bytes() / 12;
  EXPECT_EQ(store.current_pages(0), kN / per_page);
  // Read one raw flushed page straight from the generation blob (the first
  // produce generation is named t/log_gen0) and decode it in isolation.
  ssd::Blob& blob = env.storage.open_blob("t/log_gen0");
  EXPECT_EQ(blob.size(), store.current_pages(0) * 4096u);
  std::vector<std::byte> page(store.usable_page_bytes());
  blob.read(0, page.data(), page.size());
  const auto recs = decode_records<Wide>(page);
  ASSERT_EQ(recs.size(), per_page);
  for (std::uint32_t j = 0; j < recs.size(); ++j) {
    EXPECT_EQ(recs[j].dst, j % 4);
    EXPECT_EQ(recs[j].payload.a, j);
    EXPECT_EQ(recs[j].payload.b, j * 2);
  }
}

TEST(MultiLogStore, StagedAppendMatchesLockedPath) {
  // One thread, staging on vs off: per-interval logs must be byte-identical
  // (a single producer's flush order is its append order).
  Env locked_env;
  Env staged_env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  MultiLogStore locked(locked_env.storage, "t", iv, {.record_size = 8});
  MultiLogStore staged(staged_env.storage, "t", iv,
                       {.record_size = 8, .staging_records = 7});
  auto staging = staged.make_staging();
  SplitMix64 rng(11);
  for (std::uint32_t k = 0; k < 20000; ++k) {
    const auto dst = static_cast<VertexId>(rng.next_below(64));
    append_record<std::uint32_t>(locked, dst, k);
    append_record_staged<std::uint32_t>(staged, staging, dst, k);
  }
  staged.flush_staging(staging);
  EXPECT_GT(staging.flush_count(), 0u);
  EXPECT_GE(staging.stall_seconds(), 0.0);
  locked.swap_generations();
  staged.swap_generations();
  for (IntervalId i = 0; i < iv.count(); ++i) {
    std::vector<std::byte> a;
    std::vector<std::byte> b;
    locked.load_interval(i, a);
    staged.load_interval(i, b);
    EXPECT_EQ(a, b) << "interval " << i;
    EXPECT_EQ(locked.current_pages(i), staged.current_pages(i));
  }
}

TEST(MultiLogStore, StagedRecordsInvisibleUntilFlushed) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .staging_records = 1024});
  auto staging = store.make_staging();
  for (std::uint32_t k = 0; k < 100; ++k) {
    append_record_staged<std::uint32_t>(store, staging, 15, k);  // interval 1
  }
  EXPECT_EQ(store.produced_count(1), 0u);  // parked in the staging buffer
  EXPECT_FALSE(staging.empty());
  store.flush_staging(staging);
  EXPECT_EQ(store.produced_count(1), 100u);
  EXPECT_TRUE(staging.empty());
  EXPECT_EQ(staging.flush_count(), 1u);  // one chunk, one lock take
}

TEST(MultiLogStore, StagingDepthZeroDegradesToLockedAppend) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv, {.record_size = 8});
  auto staging = store.make_staging();
  append_record_staged<std::uint32_t>(store, staging, 15, 1);
  EXPECT_EQ(store.produced_count(1), 1u);  // no staging: visible immediately
  EXPECT_EQ(staging.flush_count(), 0u);
  store.flush_staging(staging);  // no-op
  EXPECT_EQ(store.produced_count(1), 1u);
}

TEST(MultiLogStore, DiscardedStagingNeverFlushes) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(20, 10);
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .staging_records = 64});
  auto staging = store.make_staging();
  append_record_staged<std::uint32_t>(store, staging, 3, 7);
  staging.discard();
  store.flush_staging(staging);
  EXPECT_EQ(store.produced_count(0), 0u);
}

TEST(MultiLogStore, StagingPeakCoversRecordsAndSealedCopy) {
  // A staging's footprint is its record buffer plus, while sealing, the
  // grouped copy; take_peak_bytes() reports that peak and resets. A seal
  // frees the record buffer, a flush frees the rest, and appending to a
  // sealed staging is refused.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .staging_records = 1});
  auto staging = store.make_staging();
  staging.reserve(100 * 8);
  for (std::uint32_t k = 0; k < 100; ++k) {
    append_record_staged<std::uint32_t>(store, staging, k % 64, k);
  }
  EXPECT_EQ(staging.buffered_bytes(), 800u);
  store.seal_staging(staging);
  EXPECT_EQ(staging.buffered_bytes(), 0u);
  EXPECT_FALSE(staging.empty());
  EXPECT_THROW(append_record_staged<std::uint32_t>(store, staging, 1, 1),
               Error);
  EXPECT_EQ(staging.take_peak_bytes(), 1600u);  // 800 records + 800 grouped
  EXPECT_EQ(staging.take_peak_bytes(), 0u);
  EXPECT_EQ(store.produced_count(0), 0u);  // sealed is not yet published
  store.flush_staging(staging);
  EXPECT_TRUE(staging.empty());
  EXPECT_EQ(staging.flush_count(), iv.count());  // one chunk per interval
  std::uint64_t produced = 0;
  for (IntervalId i = 0; i < iv.count(); ++i) {
    produced += store.produced_count(i);
  }
  EXPECT_EQ(produced, 100u);
}

TEST(MultiLogStore, StagingsPublishedInOrderMatchSerialAppend) {
  // The engine's produce path: racing threads fill stagings (one per batch
  // chunk) and seal them, which are flushed in chunk order after the
  // join. Each interval's log must hold exactly one thread's append() of
  // the same records in chunk order — whatever the interleaving — and under
  // v2 the encoded stream must not depend on the thread count or on whether
  // the stagings were sealed before the flush.
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  constexpr int kChunks = 12, kPerChunk = 1500;
  const auto chunk_records = [](int c) {
    std::vector<std::pair<VertexId, std::uint32_t>> recs;
    SplitMix64 rng(static_cast<std::uint64_t>(31 + c));
    for (int k = 0; k < kPerChunk; ++k) {
      recs.emplace_back(static_cast<VertexId>(rng.next_below(64)),
                        static_cast<std::uint32_t>(c * kPerChunk + k));
    }
    return recs;
  };
  struct Logs {
    std::vector<std::vector<std::byte>> stream;  // as load_interval returns
    std::vector<std::uint64_t> pages;
  };
  const auto read_back = [&](MultiLogStore& store) {
    store.swap_generations();
    Logs logs;
    for (IntervalId i = 0; i < iv.count(); ++i) {
      logs.stream.emplace_back();
      store.load_interval(i, logs.stream.back());
      logs.pages.push_back(store.current_pages(i));
    }
    return logs;
  };
  const auto decoded = [&](const Logs& logs, OnDiskFormat format) {
    if (format == OnDiskFormat::kV1) return logs.stream;
    std::vector<std::vector<std::byte>> out(logs.stream.size());
    for (std::size_t i = 0; i < logs.stream.size(); ++i) {
      decode_chunks_to_records(logs.stream[i], 8, false, out[i]);
    }
    return out;
  };
  const auto staged_run = [&](OnDiskFormat format, int threads, bool seal) {
    Env env;
    MultiLogStore store(env.storage, "t", iv,
                        {.record_size = 8, .format = format,
                         .staging_records = 3, .evict_batch_pages = 2});
    std::vector<MultiLogStore::Staging> stagings;
    for (int c = 0; c < kChunks; ++c) {
      stagings.push_back(store.make_staging());
    }
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int c = next++; c < kChunks; c = next++) {
          for (const auto& [dst, payload] : chunk_records(c)) {
            append_record_staged<std::uint32_t>(store, stagings[c], dst,
                                                payload);
          }
          if (seal) store.seal_staging(stagings[c]);
        }
      });
    }
    for (auto& th : pool) th.join();
    // Stagings never flush on their own: nothing is visible yet.
    for (IntervalId i = 0; i < iv.count(); ++i) {
      EXPECT_EQ(store.produced_count(i), 0u) << "interval " << i;
    }
    for (auto& staging : stagings) {
      store.flush_staging(staging);
      EXPECT_TRUE(staging.empty());
      // One flush per interval the chunk touched (all 8 at this density).
      EXPECT_EQ(staging.flush_count(), iv.count());
    }
    return read_back(store);
  };

  for (const OnDiskFormat format : {OnDiskFormat::kV1, OnDiskFormat::kV2}) {
    SCOPED_TRACE(format == OnDiskFormat::kV1 ? "v1" : "v2");
    Env env;
    MultiLogStore serial(env.storage, "t", iv,
                         {.record_size = 8, .format = format});
    for (int c = 0; c < kChunks; ++c) {
      for (const auto& [dst, payload] : chunk_records(c)) {
        append_record<std::uint32_t>(serial, dst, payload);
      }
    }
    const Logs expected = read_back(serial);
    const Logs racing = staged_run(format, 4, /*seal=*/true);
    EXPECT_EQ(decoded(racing, format), decoded(expected, format));
    if (format == OnDiskFormat::kV1) {
      EXPECT_EQ(racing.pages, expected.pages);
    }
    const Logs single = staged_run(format, 1, /*seal=*/false);
    EXPECT_EQ(racing.stream, single.stream);
    EXPECT_EQ(racing.pages, single.pages);
  }
}

TEST(MultiLogStore, StagedAppendsWithConcurrentDrainsMatchOracle) {
  // The §V.F concurrency surface under worst-case staging: N producers with
  // tiny (2-record) staging buffers and background eviction race a drainer
  // that empties random produce intervals, across several generation swaps.
  // Every message must land exactly once — in a drain or in the swapped-in
  // log — matching a single-threaded replay of the producers' RNG streams.
  Env env;
  const auto iv = graph::VertexIntervals::uniform(64, 8);
  ssd::AsyncIo io(2);
  MultiLogStore store(env.storage, "t", iv,
                      {.record_size = 8, .staging_records = 2,
                       .evict_batch_pages = 2, .async_io = &io});
  constexpr int kThreads = 4, kPerThread = 3000, kRounds = 3;
  const auto payload = [](int round, int t, int k) {
    return static_cast<std::uint32_t>((round * kThreads + t) * kPerThread + k);
  };
  const auto thread_seed = [](int round, int t) {
    return static_cast<std::uint64_t>(round * kThreads + t + 1);
  };

  std::map<VertexId, std::multiset<std::uint32_t>> actual;
  std::vector<std::byte> drained;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
      SplitMix64 rng(static_cast<std::uint64_t>(997 + round));
      while (!stop.load(std::memory_order_relaxed)) {
        store.drain_produce_interval(
            static_cast<IntervalId>(rng.next_below(iv.count())), drained);
      }
    });
    {
      ThreadPool pool(kThreads);
      std::vector<std::future<void>> futures;
      for (int t = 0; t < kThreads; ++t) {
        futures.push_back(pool.submit([&, t] {
          auto staging = store.make_staging();
          SplitMix64 rng(thread_seed(round, t));
          for (int k = 0; k < kPerThread; ++k) {
            const auto dst = static_cast<VertexId>(rng.next_below(64));
            append_record_staged<std::uint32_t>(store, staging, dst,
                                                payload(round, t, k));
          }
          store.flush_staging(staging);
        }));
      }
      for (auto& f : futures) f.get();
    }
    stop.store(true, std::memory_order_relaxed);
    drainer.join();
    // Whatever the drains missed rides the swap into the current generation.
    store.swap_generations();
    for (IntervalId i = 0; i < iv.count(); ++i) {
      for (const auto& rec : load_records(store, i)) {
        EXPECT_GE(rec.dst, iv.begin(i));
        EXPECT_LT(rec.dst, iv.end(i));
        actual[rec.dst].insert(rec.payload);
      }
    }
    store.swap_generations();  // discard the consumed generation
  }
  for (const auto& rec : decode_records<std::uint32_t>(drained)) {
    actual[rec.dst].insert(rec.payload);
  }

  std::map<VertexId, std::multiset<std::uint32_t>> expected;
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kThreads; ++t) {
      SplitMix64 rng(thread_seed(round, t));
      for (int k = 0; k < kPerThread; ++k) {
        const auto dst = static_cast<VertexId>(rng.next_below(64));
        expected[dst].insert(payload(round, t, k));
      }
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(MultiLogStore, RejectsBadRecordGeometry) {
  Env env;
  const auto iv = graph::VertexIntervals::uniform(4, 4);
  EXPECT_THROW(MultiLogStore(env.storage, "t", iv, {.record_size = 2}),
               Error);
  EXPECT_THROW(MultiLogStore(env.storage, "t", iv, {.record_size = 8_KiB}),
               Error);
}

// ---- sort & group ----------------------------------------------------------

TEST(SortGroup, SortsByDestination) {
  std::vector<TestRecord> records = {{5, 1}, {2, 2}, {5, 3}, {1, 4}};
  sort_records(records);
  EXPECT_EQ(records[0].dst, 1u);
  EXPECT_EQ(records[1].dst, 2u);
  EXPECT_EQ(records[2].dst, 5u);
  EXPECT_EQ(records[3].dst, 5u);
}

TEST(SortGroup, GroupsAreContiguousAndComplete) {
  std::vector<TestRecord> records;
  SplitMix64 rng(8);
  std::map<VertexId, std::size_t> expected;
  for (int i = 0; i < 10000; ++i) {
    const auto dst = static_cast<VertexId>(rng.next_below(100));
    records.push_back({dst, 0});
    ++expected[dst];
  }
  sort_records(records);
  std::map<VertexId, std::size_t> seen;
  for_each_group(std::span<const TestRecord>(records),
                 [&](VertexId dst, std::span<const TestRecord> group) {
                   EXPECT_EQ(seen.count(dst), 0u) << "group visited twice";
                   seen[dst] = group.size();
                 });
  EXPECT_EQ(seen, expected);
}

TEST(SortGroup, GroupOffsetsMatchForEachGroup) {
  std::vector<TestRecord> records = {{1, 0}, {1, 0}, {3, 0}, {7, 0}, {7, 0}};
  const auto offsets = group_offsets(std::span<const TestRecord>(records));
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 2, 3, 5}));
}

TEST(SortGroup, GroupOffsetsEmpty) {
  std::vector<TestRecord> records;
  const auto offsets = group_offsets(std::span<const TestRecord>(records));
  EXPECT_EQ(offsets, std::vector<std::size_t>{0});
}

TEST(SortGroup, CombineSumsPerDestination) {
  std::vector<TestRecord> records = {{1, 10}, {1, 20}, {2, 5}, {3, 1}, {3, 2}};
  const auto n = combine_sorted(
      records, [](std::uint32_t a, std::uint32_t b) { return a + b; });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(records[0].payload, 30u);
  EXPECT_EQ(records[1].payload, 5u);
  EXPECT_EQ(records[2].payload, 3u);
}

/// Property: processing with combine on or off gives the same per-vertex
/// reduction for an associative+commutative operator.
class CombineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CombineEquivalence, SumsMatch) {
  SplitMix64 rng(GetParam());
  std::vector<TestRecord> records;
  for (int i = 0; i < 5000; ++i) {
    records.push_back({static_cast<VertexId>(rng.next_below(64)),
                       static_cast<std::uint32_t>(rng.next_below(100))});
  }
  auto combined = records;
  sort_records(records);
  sort_records(combined);
  combine_sorted(combined,
                 [](std::uint32_t a, std::uint32_t b) { return a + b; });

  std::map<VertexId, std::uint64_t> by_group;
  for_each_group(std::span<const TestRecord>(records),
                 [&](VertexId dst, std::span<const TestRecord> group) {
                   std::uint64_t sum = 0;
                   for (const auto& r : group) sum += r.payload;
                   by_group[dst] = sum;
                 });
  for (const auto& rec : combined) {
    EXPECT_EQ(by_group.at(rec.dst), rec.payload);
  }
  EXPECT_EQ(combined.size(), by_group.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombineEquivalence,
                         ::testing::Values(3, 6, 9, 12));

// ---- ActiveSet -------------------------------------------------------------

TEST(ActiveSet, ActivateAndRange) {
  ActiveSet set(100);
  set.activate(5);
  set.activate(50);
  set.activate(95);
  EXPECT_TRUE(set.is_active(5));
  EXPECT_FALSE(set.is_active(6));
  EXPECT_EQ(set.count(), 3u);
  EXPECT_EQ(set.active_in_range(0, 60),
            (std::vector<VertexId>{5, 50}));
  set.clear();
  EXPECT_TRUE(set.empty());
}

TEST(ActiveSet, ConcurrentActivation) {
  ActiveSet set(10000);
  parallel_for(0, 10000, [&](int i) {
    if (i % 3 == 0) set.activate(static_cast<VertexId>(i));
  });
  EXPECT_EQ(set.count(), (10000 + 2) / 3);
}

// ---- HistoryPredictor ------------------------------------------------------

TEST(Predictor, DepthOneUsesLastSuperstepOnly) {
  HistoryPredictor pred(10, 1);
  DynamicBitset a(10);
  a.set(3);
  pred.observe(a);
  EXPECT_TRUE(pred.predict_active(3));
  EXPECT_FALSE(pred.predict_active(4));

  DynamicBitset b(10);
  b.set(4);
  pred.observe(b);  // depth 1: superstep with vertex 3 forgotten
  EXPECT_FALSE(pred.predict_active(3));
  EXPECT_TRUE(pred.predict_active(4));
}

TEST(Predictor, DeeperHistoryRemembersLonger) {
  HistoryPredictor pred(10, 3);
  DynamicBitset a(10);
  a.set(1);
  pred.observe(a);
  DynamicBitset empty(10);
  pred.observe(empty);
  pred.observe(empty);
  EXPECT_TRUE(pred.predict_active(1));
  pred.observe(empty);
  EXPECT_FALSE(pred.predict_active(1));
}

TEST(Predictor, DepthZeroNeverPredicts) {
  HistoryPredictor pred(10, 0);
  DynamicBitset a(10);
  a.set_all();
  pred.observe(a);
  EXPECT_FALSE(pred.predict_active(0));
}

TEST(Predictor, ScoreComputesRecall) {
  HistoryPredictor pred(10, 1);
  DynamicBitset prev(10);
  prev.set(1);
  prev.set(2);
  pred.observe(prev);
  DynamicBitset actual(10);
  actual.set(2);
  actual.set(3);
  const auto acc = pred.score(actual);
  EXPECT_EQ(acc.active, 2u);
  EXPECT_EQ(acc.predicted_and_active, 1u);
  EXPECT_DOUBLE_EQ(acc.recall(), 0.5);
}

// ---- PageUtilTracker -------------------------------------------------------

TEST(PageUtil, ClassifiesInefficientPages) {
  PageUtilTracker tracker(4096, 0.10);
  tracker.record(1, 0, 100);    // 2.4% -> inefficient
  tracker.record(1, 1, 2000);   // 48%  -> fine
  tracker.record(1, 2, 300);    // 7.3% -> inefficient
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_touched, 3u);
  EXPECT_EQ(s.pages_inefficient, 2u);
  EXPECT_DOUBLE_EQ(s.inefficient_fraction(), 2.0 / 3.0);
}

TEST(PageUtil, AccumulatesWithinSuperstep) {
  PageUtilTracker tracker(4096, 0.10);
  tracker.record(1, 0, 200);
  tracker.record(1, 0, 300);  // same page: 500 bytes total -> 12%, fine
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_inefficient, 0u);
}

TEST(PageUtil, PredictsFromPreviousSuperstep) {
  PageUtilTracker tracker(4096, 0.10);
  tracker.record(1, 7, 50);
  tracker.finish_superstep();
  EXPECT_TRUE(tracker.was_inefficient(1, 7));
  EXPECT_FALSE(tracker.was_inefficient(1, 8));

  tracker.record(1, 7, 60);  // inefficient again
  tracker.record(1, 9, 10);  // new inefficient page, not predicted
  const auto s = tracker.finish_superstep();
  EXPECT_EQ(s.pages_inefficient, 2u);
  EXPECT_EQ(s.inefficient_predicted, 1u);
  EXPECT_DOUBLE_EQ(s.prediction_recall(), 0.5);
}

}  // namespace
}  // namespace mlvc::multilog
