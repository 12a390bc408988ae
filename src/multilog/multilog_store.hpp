// The multi-log update unit (§V.A of the paper).
//
// One message log per destination vertex interval. SendUpdate(dst, m)
// appends the fixed-size record <dst, m> to the log of dst's interval. Each
// interval keeps one page-sized "top page" buffer in host memory; a full top
// page is flushed to storage (page-granular eviction, §V.A.3). Physically,
// all flushed pages of one generation live in a single storage blob — a
// page-chained log per interval — so thousands of intervals don't need
// thousands of file descriptors, while reads/writes still hit exactly the
// interval's own pages. The device model stripes consecutive pages across
// channels, reproducing the paper's "logs interspersed across channels".
//
// Two generations exist at once: the *current* generation (written last
// superstep, now being consumed) and the *produce* generation (receiving
// this superstep's sends). swap_generations() rotates them at the superstep
// boundary.
//
// The store is byte-oriented (record_size fixed at construction) so it can
// be compiled once and unit-tested independently of any message type; the
// engine layers a typed view on top (multilog/record.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/intervals.hpp"
#include "ssd/async_io.hpp"
#include "ssd/storage.hpp"

namespace mlvc::multilog {

struct MultiLogConfig {
  /// Bytes per logged record, including the 4-byte destination header.
  std::size_t record_size = 8;

  /// On-disk layout of the flushed logs. kV1 stores fixed-width records,
  /// page-aligned (records never straddle a page). kV2 stores the
  /// delta+varint chunk stream of multilog/log_codec.hpp: pages fill
  /// completely, chunks may straddle page boundaries, and load_interval
  /// returns the encoded stream (record counts stay logical either way).
  /// The engine picks this from EngineOptions::on_disk_format; the default
  /// here stays v1 so byte-oriented unit tests keep raw-record semantics.
  OnDiskFormat format = OnDiskFormat::kV1;
  /// v2 only: varint-encode the post-destination payload bytes (small
  /// integral messages); false keeps payloads fixed-width (floats, padded
  /// records). Must match multilog::kPayloadVarint<Message> for typed use.
  bool payload_varint = false;
  /// Host memory available for top pages (A% of the budget, §V.A.3). The
  /// paper notes at least one page per interval must be resident; we enforce
  /// exactly one top page per interval and check the budget covers it.
  std::size_t buffer_budget_bytes = 0;  // 0 = don't enforce

  /// Produce-path staging switch for append_staged(): 0 = append_staged()
  /// is the per-record locked append (the old produce path, kept as an
  /// ablation); any other value stages records in a Staging. A Staging
  /// grows as it fills, so the value sizes nothing — its owner bounds what
  /// it holds by how much it sends between flushes.
  std::size_t staging_records = 0;

  /// Full pages queue in a small eviction buffer and are written to the
  /// generation blob in one batched, contiguous append of this many pages
  /// (§V.A.3: evictions are batched and striped to "maximize log writeback
  /// bandwidth"). 1 = write each page immediately.
  std::size_t evict_batch_pages = 16;

  /// When set, full eviction batches are written to the generation blob by
  /// these I/O threads instead of inline on the producing compute thread
  /// (the paper's §VI async-I/O overlap). Blob offsets — and therefore page
  /// numbers — are still assigned synchronously, so log layout and page
  /// accounting are byte-identical to the inline path. Non-owning.
  ssd::AsyncIo* async_io = nullptr;

  /// Reject construction when this prefix's generation blobs already exist.
  /// Two LIVE stores sharing a prefix silently truncate each other's logs
  /// (create_blob truncates), so context-mode engines — whose "q<id>"
  /// prefixes are unique by construction — set this to turn an id collision
  /// into a loud error. One-shot runs leave it off: rebuilding an engine
  /// over an existing storage directory is legal there (test_checkpoint
  /// does exactly that).
  bool expect_fresh_blobs = false;
};

class MultiLogStore {
 public:
  MultiLogStore(ssd::Storage& storage, std::string prefix,
                const graph::VertexIntervals& intervals, MultiLogConfig config);

  /// Waits for outstanding background eviction writes (errors are dropped —
  /// the data is being discarded anyway).
  ~MultiLogStore();

  std::size_t record_size() const noexcept { return config_.record_size; }
  OnDiskFormat format() const noexcept { return config_.format; }
  bool payload_varint() const noexcept { return config_.payload_varint; }
  IntervalId interval_count() const noexcept {
    return static_cast<IntervalId>(intervals_->count());
  }

  // ---- produce side (messages for the *next* superstep) -------------------

  /// Append one record for destination vertex `dst`. `record` must be
  /// record_size bytes whose first 4 bytes equal `dst`. Thread-safe (per
  /// interval lock).
  void append(VertexId dst, const void* record);

  /// Staging for the produce path. append_staged() copies the record into
  /// the staging's own buffer — no lock, no shared state, no interval
  /// lookup — and the buffer grows as it fills: a staging never flushes on
  /// its own. flush_staging() groups the buffered records by destination
  /// interval (stably, so each interval keeps append order), encodes them
  /// under v2, and appends each interval's group to its log in one chunk:
  /// one interval-lock take per touched interval instead of one per record.
  /// seal_staging() does the grouping and encoding ahead of the flush, on
  /// the calling thread and touching no shared state.
  ///
  /// Records parked in a Staging are invisible to produced_count /
  /// drain_produce_interval / swap_generations until flushed; the owner must
  /// flush_staging() before any of those read the produce generation.
  ///
  /// Because a staging publishes everything it holds at once, in append
  /// order, flushing several stagings one after another in a fixed order
  /// makes each interval's log their records in that order, however
  /// threads interleaved while filling them — the engine stages each chunk
  /// of a batch's vertices this way, so logs come out in serial vertex
  /// order. What a staging holds is bounded only by what its owner sends
  /// between flushes. A staging is used by one thread at a time; another
  /// thread may seal or flush it once the filling thread hands it over
  /// through a synchronizing step (a join, a mutex).
  ///
  /// With staging off (MultiLogConfig::staging_records == 0)
  /// append_staged() is the per-record locked append, its interval lookup
  /// hoisted behind a last-interval cache (sends cluster by destination).
  class Staging {
   public:
    Staging() = default;

    /// Published-chunk count and wall time spent inside publishes (the
    /// residual serialized section of the scatter path) since the last
    /// reset_stats().
    std::uint64_t flush_count() const noexcept { return flush_count_; }
    double stall_seconds() const noexcept { return stall_seconds_; }
    void reset_stats() noexcept {
      flush_count_ = 0;
      stall_seconds_ = 0;
    }

    /// Record bytes appended and not yet sealed.
    std::size_t buffered_bytes() const noexcept { return fill_; }

    /// Make room for `bytes` of records in total, so appends up to that
    /// size never regrow the buffer (it still grows past it when needed).
    void reserve(std::size_t bytes);

    /// Most bytes this staging held at once — its record buffer plus the
    /// grouped / encoded copy a seal builds — since the last call; resets.
    std::size_t take_peak_bytes() noexcept {
      const std::size_t peak = peak_bytes_;
      peak_bytes_ = 0;
      return peak;
    }

    /// Drop any buffered records without flushing them (checkpoint rollback:
    /// records staged by an aborted superstep must not leak into the next
    /// generation).
    void discard() noexcept {
      release_records();
      runs_.clear();
      std::vector<std::uint8_t>().swap(sealed_);
      cache_begin_ = cache_end_ = 0;
    }

    bool empty() const noexcept { return fill_ == 0 && runs_.empty(); }

   private:
    friend class MultiLogStore;
    /// One destination interval's records in sealed_: bytes up to `end`
    /// (from the previous run's end).
    struct Run {
      IntervalId interval = 0;
      std::uint64_t n_records = 0;
      std::size_t end = 0;
    };
    void grow(std::size_t min_capacity);
    void release_records() noexcept {
      records_.reset();
      fill_ = capacity_ = 0;
    }
    // Records in append order; grown on demand, freed by every seal.
    std::unique_ptr<std::byte[]> records_;
    std::size_t fill_ = 0;
    std::size_t capacity_ = 0;
    // seal_staging(): the records grouped by interval (ascending) in their
    // on-disk form — raw under v1, chunk stream under v2.
    std::vector<std::uint8_t> sealed_;
    std::vector<Run> runs_;
    std::size_t peak_bytes_ = 0;
    // Last-interval cache for the staging-off interval_of hoist.
    VertexId cache_begin_ = 0;
    VertexId cache_end_ = 0;
    IntervalId cache_interval_ = 0;
    // Generation tag: swap_count_ observed when the staging first became
    // dirty; flushing across a swap_generations() is a contract violation.
    unsigned swap_tag_ = 0;
    std::uint64_t flush_count_ = 0;
    double stall_seconds_ = 0;
  };

  /// Create an (empty) staging area for this store. Each one is used by one
  /// thread at a time (see Staging).
  Staging make_staging() const { return Staging{}; }

  /// Append one record through `staging`. Equivalent to append() record by
  /// record up to ordering: per-staging append order is preserved within an
  /// interval, and stagings interleave in the order they are flushed.
  /// Defined inline below — the hot path (buffer live, room left) is a
  /// memcpy, no lock and no shared state.
  void append_staged(Staging& staging, VertexId dst, const void* record);

  /// append_staged with the record size fixed at compile time (typed
  /// callers); kRecordSize must equal record_size().
  template <std::size_t kRecordSize>
  void append_staged_fixed(Staging& staging, VertexId dst, const void* record);

  /// Publish everything `staging` holds into the shared top pages, sealing
  /// it first if it is not sealed, and free its buffers: interval by
  /// interval, ascending, each interval's records in append order.
  void flush_staging(Staging& staging);

  /// Group `staging`'s buffered records by destination interval and encode
  /// them into their on-disk form now, on the calling thread and touching
  /// no shared state, so the next flush_staging() only copies bytes under
  /// the interval locks. Frees the record buffer. No append may follow
  /// until that flush.
  void seal_staging(Staging& staging) const;

  /// Bytes of each flushed page that hold records. Pages always contain a
  /// whole number of records (floor(page_size / record_size) of them); when
  /// record_size does not divide the page size the slack tail of every page
  /// is zero padding, written but never read back.
  std::size_t usable_page_bytes() const noexcept { return usable_page_bytes_; }

  /// Records appended to interval i's produce-generation log so far. This is
  /// the counter §V.A.2 uses to estimate log sizes for interval fusion.
  std::uint64_t produced_count(IntervalId i) const;

  /// Per-interval producer sequence: total records ever appended to interval
  /// i's produce side, monotone across generation swaps (never reset). This
  /// is the interval-granular quiesce signal the scheduler uses: a chain
  /// records the sequence right after draining i's log, and any later
  /// mismatch means producers appended behind the drain. Lock-free read —
  /// exact whenever no appender is concurrently live for i (the engine reads
  /// it from the main thread with no parallel region active).
  std::uint64_t produce_seq(IntervalId i) const noexcept {
    return produce_seq_[i].load(std::memory_order_relaxed);
  }

  // ---- superstep boundary --------------------------------------------------

  /// Discard the consumed generation, make the produced one current. Partial
  /// top pages stay in host memory and are served from there on load (no
  /// I/O charged — they never left the host).
  void swap_generations();

  // ---- consume side (messages sent during the *previous* superstep) -------

  std::uint64_t current_count(IntervalId i) const;
  std::uint64_t total_current_count() const;

  /// Logical (decoded) byte size of interval i's current log — records x
  /// record_size regardless of on-disk format, which is what fusion planning
  /// sizes its sort budget against.
  std::uint64_t current_bytes(IntervalId i) const {
    return current_count(i) * config_.record_size;
  }

  /// Load interval i's full current log (spilled pages + resident tail) into
  /// `out`, appended. Page reads are charged to IoCategory::kMessageLog
  /// (physical bytes); the decoded size is recorded as logical bytes. Under
  /// v1 the bytes are raw records; under v2 they are the encoded chunk
  /// stream (current_bytes(i) is the decoded size).
  void load_interval(IntervalId i, std::vector<std::byte>& out) const;

  /// Number of pages interval i's current log occupies on storage.
  std::uint64_t current_pages(IntervalId i) const;

  /// Checkpoint support: replace interval i's *current* (consume-side) log
  /// with a whole-log image (as produced by load_interval). Caller must
  /// reset_all() first so both generations start empty.
  void restore_current_interval(IntervalId i, std::span<const std::byte> bytes);

  /// Drop all logs in both generations (checkpoint rollback).
  void reset_all();

  /// Asynchronous-mode support (§V.F): move everything appended to interval
  /// i's *produce* log so far into `out` and reset that log, so messages
  /// sent earlier in the same superstep can be delivered to intervals
  /// processed later ("the latest updates from the source vertices will be
  /// delivered to the target vertices, either from the current superstep or
  /// the previous one"). Returns the number of records drained.
  std::uint64_t drain_produce_interval(IntervalId i,
                                       std::vector<std::byte>& out);

 private:
  struct Generation {
    ssd::Blob* blob = nullptr;                       // flushed pages
    std::vector<std::vector<std::uint64_t>> pages;   // per-interval page nos
    std::vector<std::vector<std::byte>> top;         // per-interval tail
    std::vector<std::size_t> top_fill;               // bytes used in tail
    std::vector<std::uint64_t> counts;               // records per interval
    // Eviction queue: full pages awaiting one batched contiguous append.
    std::vector<std::byte> evict_buffer;
    std::vector<IntervalId> evict_owners;
    std::uint64_t next_page = 0;
  };

  void reset_generation(Generation& gen, const std::string& blob_name);
  /// Copy `len` stream bytes carrying `n_records` records into interval i's
  /// top page, evicting each page as it fills (to usable_page_bytes_, which
  /// is the whole page under v2 — encoded chunks straddle pages). Caller
  /// holds interval i's lock. Under v1, len is n_records whole records and
  /// records never straddle a page boundary.
  void append_bytes_locked(Generation& gen, IntervalId i,
                           const std::byte* data, std::size_t len,
                           std::uint64_t n_records);
  /// Locked-path single-record append (append() and the staging-off slow
  /// path): encodes under v2, raw copy under v1.
  void append_single(IntervalId i, const void* record);
  /// Physical stream bytes of interval i in `gen`: spilled pages plus the
  /// resident tail. Equals counts[i] * record_size under v1.
  std::uint64_t stream_bytes(const Generation& gen, IntervalId i) const {
    return gen.pages[i].size() * usable_page_bytes_ + gen.top_fill[i];
  }
  /// append_staged cold path: the first record of a staging (generation
  /// tag), a full buffer (growth), and the staging-off locked append.
  void stage_slow(Staging& staging, VertexId dst, const void* record);
  void queue_eviction(Generation& gen, IntervalId interval,
                      const std::byte* page);
  void flush_evictions(Generation& gen);
  /// Block until every background eviction write issued so far has landed on
  /// storage, rethrowing the first captured I/O error. Caller must hold
  /// evict_mutex_.
  void wait_background_evictions();

  ssd::Storage& storage_;
  std::string prefix_;
  const graph::VertexIntervals* intervals_;
  MultiLogConfig config_;
  std::size_t page_size_;
  /// Record-holding prefix of every page: floor(page_size / record_size)
  /// whole records. Eviction, load and drain all work in these units.
  std::size_t usable_page_bytes_ = 0;
  /// Starting record-buffer size of a Staging that was not reserve()d.
  static constexpr std::size_t kStagingStartRecords = 64;

  std::vector<std::unique_ptr<std::mutex>> interval_locks_;
  mutable std::mutex evict_mutex_;
  ssd::IoBatch pending_evictions_;  // guarded by evict_mutex_
  Generation generations_[2];
  unsigned produce_index_ = 0;  // generations_[produce_index_] receives sends
  unsigned swap_count_ = 0;
  /// Monotone per-interval producer sequence (see produce_seq()); bumped in
  /// append_bytes_locked, the single funnel every produce-side append passes
  /// through. Atomic so the scheduler can read it without the interval lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> produce_seq_;
};

inline void MultiLogStore::append_staged(Staging& staging, VertexId dst,
                                         const void* record) {
  const std::size_t rs = config_.record_size;
  // Staging off leaves fill_ at 0, so every record takes the locked path.
  if (staging.fill_ != 0 && staging.capacity_ - staging.fill_ >= rs)
      [[likely]] {
    std::memcpy(staging.records_.get() + staging.fill_, record, rs);
    staging.fill_ += rs;
    return;
  }
  stage_slow(staging, dst, record);
}

/// Compile-time record-size variant of append_staged for the typed layer
/// (record.hpp): the copy collapses to a fixed-width move instead of a
/// runtime-size memcpy dispatch. kRecordSize must equal record_size() —
/// the same contract append()/append_record already rely on.
template <std::size_t kRecordSize>
void MultiLogStore::append_staged_fixed(Staging& staging, VertexId dst,
                                        const void* record) {
  if (staging.fill_ != 0 && staging.capacity_ - staging.fill_ >= kRecordSize)
      [[likely]] {
    std::memcpy(staging.records_.get() + staging.fill_, record, kRecordSize);
    staging.fill_ += kRecordSize;
    return;
  }
  stage_slow(staging, dst, record);
}

}  // namespace mlvc::multilog
