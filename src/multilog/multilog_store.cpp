#include "multilog/multilog_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "multilog/log_codec.hpp"

namespace mlvc::multilog {

MultiLogStore::MultiLogStore(ssd::Storage& storage, std::string prefix,
                             const graph::VertexIntervals& intervals,
                             MultiLogConfig config)
    : storage_(storage),
      prefix_(std::move(prefix)),
      intervals_(&intervals),
      config_(config),
      page_size_(storage.page_size()) {
  MLVC_CHECK_MSG(config_.record_size >= sizeof(VertexId),
                 "record must at least hold the destination header");
  MLVC_CHECK_MSG(config_.record_size <= page_size_,
                 "a record must fit in one page");
  const IntervalId n = intervals.count();
  MLVC_CHECK_MSG(n > 0, "multi-log needs at least one interval");
  if (config_.buffer_budget_bytes != 0) {
    // §V.A.3: "at least one log buffer is allocated for each vertex
    // interval", so one top page per interval is mandatory resident state.
    // The budget is advisory beyond that floor (the paper's own numbers —
    // ~5000 intervals x 16 KiB vs A% = 5% of 1 GB — exceed a strict bound
    // too; their buffer is "10-100s of MBs"). We only reject budgets that
    // cannot hold even a single page.
    MLVC_CHECK_MSG(config_.buffer_budget_bytes >= page_size_,
                   "multi-log buffer budget ("
                       << config_.buffer_budget_bytes
                       << " B) smaller than one page (" << page_size_
                       << " B)");
  }
  if (config_.format == OnDiskFormat::kV2) {
    // v2 chunk streams are self-delimiting, so pages fill completely and
    // chunks straddle page boundaries — no per-page record alignment.
    usable_page_bytes_ = page_size_;
    MLVC_CHECK_MSG(!config_.payload_varint ||
                       config_.record_size - sizeof(VertexId) <= 8,
                   "varint payloads must fit a u64");
    MLVC_CHECK_MSG(kLogChunkHeaderBytes +
                           worst_chunk_record_bytes(config_.record_size,
                                                    config_.payload_varint) <=
                       0xFFFF,
                   "record too large for the v2 chunk format");
  } else {
    usable_page_bytes_ =
        (page_size_ / config_.record_size) * config_.record_size;
  }
  interval_locks_.reserve(n);
  for (IntervalId i = 0; i < n; ++i) {
    interval_locks_.push_back(std::make_unique<std::mutex>());
  }
  produce_seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (IntervalId i = 0; i < n; ++i) {
    produce_seq_[i].store(0, std::memory_order_relaxed);
  }
  if (config_.expect_fresh_blobs) {
    MLVC_CHECK_MSG(!storage_.has_blob(prefix_ + "/log_gen0") &&
                       !storage_.has_blob(prefix_ + "/log_gen1"),
                   "multi-log prefix '"
                       << prefix_
                       << "' already in use by a live or leaked store");
  }
  reset_generation(generations_[0], prefix_ + "/log_gen0");
  reset_generation(generations_[1], prefix_ + "/log_gen1");
}

MultiLogStore::~MultiLogStore() {
  try {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    wait_background_evictions();
  } catch (...) {
    // Destructor: the log is going away, a failed flush of it is moot.
  }
}

void MultiLogStore::reset_generation(Generation& gen,
                                     const std::string& blob_name) {
  const IntervalId n = intervals_->count();
  gen.blob = &storage_.create_blob(blob_name, ssd::IoCategory::kMessageLog);
  gen.pages.assign(n, {});
  gen.top.assign(n, {});
  gen.top_fill.assign(n, 0);
  gen.counts.assign(n, 0);
  gen.next_page = 0;
}

void MultiLogStore::append_bytes_locked(Generation& gen, IntervalId i,
                                        const std::byte* data, std::size_t len,
                                        std::uint64_t n_records) {
  auto& top = gen.top[i];
  if (top.empty()) top.resize(page_size_);  // zero-fills the slack tail too
  std::size_t& fill = gen.top_fill[i];
  while (len > 0) {
    // fill and len are both whole records, so `take` is too: records never
    // straddle a page boundary and every flushed page passes
    // checked_record_count on its own.
    const std::size_t take = std::min(len, usable_page_bytes_ - fill);
    std::memcpy(top.data() + fill, data, take);
    fill += take;
    data += take;
    len -= take;
    if (fill == usable_page_bytes_) {
      // Page-granular eviction (§V.A.3): the full top page joins the batch
      // eviction queue and the interval starts a fresh one.
      queue_eviction(gen, i, top.data());
      fill = 0;
    }
  }
  gen.counts[i] += n_records;
  // Quiesce signal: every produce-side append funnels through here (both
  // call sites pass the produce generation), so the per-interval sequence
  // advances exactly when interval i's pending log grows.
  produce_seq_[i].fetch_add(n_records, std::memory_order_relaxed);
  // Logical (decoded) produce bytes, regardless of on-disk format — the
  // physical side is whatever the eviction batches hand the blob.
  storage_.stats().record_logical_write(ssd::IoCategory::kMessageLog,
                                        n_records * config_.record_size);
}

void MultiLogStore::append_single(IntervalId i, const void* record) {
  Generation& gen = generations_[produce_index_];
  if (config_.format == OnDiskFormat::kV2) {
    // One-record chunk (the locked slow path trades compression for
    // simplicity; the staged path encodes whole interval groups).
    thread_local std::vector<std::uint8_t> enc;
    enc.clear();
    encode_log_records(static_cast<const std::byte*>(record), 1,
                       config_.record_size, config_.payload_varint, enc);
    std::lock_guard<std::mutex> lock(*interval_locks_[i]);
    append_bytes_locked(gen, i,
                        reinterpret_cast<const std::byte*>(enc.data()),
                        enc.size(), 1);
    return;
  }
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  append_bytes_locked(gen, i, static_cast<const std::byte*>(record),
                      config_.record_size, 1);
}

void MultiLogStore::append(VertexId dst, const void* record) {
  append_single(intervals_->interval_of(dst), record);
}

void MultiLogStore::Staging::grow(std::size_t min_capacity) {
  auto bigger = std::make_unique_for_overwrite<std::byte[]>(min_capacity);
  if (fill_ > 0) std::memcpy(bigger.get(), records_.get(), fill_);
  records_ = std::move(bigger);
  capacity_ = min_capacity;
}

void MultiLogStore::Staging::reserve(std::size_t bytes) {
  if (bytes > capacity_) grow(bytes);
}

void MultiLogStore::stage_slow(Staging& staging, VertexId dst,
                               const void* record) {
  if (config_.staging_records == 0) {
    // Staging off: the old locked per-record path. Last-interval cache:
    // sends walk a vertex's out-edges, which cluster in destination ranges.
    if (dst < staging.cache_begin_ || dst >= staging.cache_end_) {
      staging.cache_interval_ = intervals_->interval_of(dst);
      staging.cache_begin_ = intervals_->begin(staging.cache_interval_);
      staging.cache_end_ = intervals_->end(staging.cache_interval_);
    }
    append_single(staging.cache_interval_, record);
    return;
  }
  MLVC_CHECK_MSG(staging.runs_.empty(),
                 "append to a sealed staging — flush_staging() first");
  const std::size_t rs = config_.record_size;
  if (staging.fill_ == 0) staging.swap_tag_ = swap_count_;
  if (staging.capacity_ - staging.fill_ < rs) {
    // Doubling keeps the copy cost amortized O(1) per record.
    staging.grow(std::max({2 * staging.capacity_, staging.fill_ + rs,
                           kStagingStartRecords * rs}));
  }
  std::memcpy(staging.records_.get() + staging.fill_, record, rs);
  staging.fill_ += rs;
}

void MultiLogStore::seal_staging(Staging& staging) const {
  if (staging.fill_ == 0) {
    // Empty, or sealed with nothing new: drop any reserved buffer.
    staging.release_records();
    return;
  }
  const std::size_t rs = config_.record_size;
  const std::size_t n = staging.fill_ / rs;
  const std::byte* records = staging.records_.get();
  // Stable counting sort by destination interval. `at` is all zero between
  // calls: per-interval counts, then write cursors, then zeroed again.
  thread_local std::vector<IntervalId> ids;
  thread_local std::vector<std::uint64_t> at;
  thread_local std::vector<IntervalId> touched;
  if (at.size() < intervals_->count()) at.resize(intervals_->count(), 0);
  ids.resize(n);
  touched.clear();
  for (std::size_t k = 0; k < n; ++k) {
    VertexId dst;
    std::memcpy(&dst, records + k * rs, sizeof(dst));
    const IntervalId i = intervals_->interval_of(dst);
    ids[k] = i;
    if (at[i]++ == 0) touched.push_back(i);
  }
  std::sort(touched.begin(), touched.end());
  staging.runs_.clear();
  std::uint64_t offset = 0;
  for (const IntervalId i : touched) {
    staging.runs_.push_back({i, at[i], 0});
    const std::uint64_t count = at[i];
    at[i] = offset;
    offset += count;
  }
  // v1 stores the grouped records as they are; v2 encodes them from a
  // grouped scratch copy.
  const bool v1 = config_.format == OnDiskFormat::kV1;
  std::unique_ptr<std::byte[]> scratch;
  std::byte* grouped = nullptr;
  if (v1) {
    staging.sealed_.resize(n * rs);
    grouped = reinterpret_cast<std::byte*>(staging.sealed_.data());
  } else {
    scratch = std::make_unique_for_overwrite<std::byte[]>(n * rs);
    grouped = scratch.get();
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::memcpy(grouped + at[ids[k]]++ * rs, records + k * rs, rs);
  }
  for (const IntervalId i : touched) at[i] = 0;
  std::size_t peak = staging.capacity_ + n * rs;
  staging.release_records();
  if (v1) {
    std::size_t end = 0;
    for (auto& run : staging.runs_) {
      end += run.n_records * rs;
      run.end = end;
    }
  } else {
    // Encode on the sealing thread, outside any lock — this is where the
    // compression work happens on the lock-free produce path. A group's
    // destinations cluster (sends walk sorted adjacency lists), so the
    // delta stream stays short.
    staging.sealed_.clear();
    staging.sealed_.reserve(n * rs);  // encoding rarely expands records
    const std::byte* group = grouped;
    for (auto& run : staging.runs_) {
      encode_log_records(group, run.n_records, rs, config_.payload_varint,
                         staging.sealed_);
      group += run.n_records * rs;
      run.end = staging.sealed_.size();
    }
    peak = std::max(peak, n * rs + staging.sealed_.capacity());
  }
  staging.peak_bytes_ = std::max(staging.peak_bytes_, peak);
}

void MultiLogStore::flush_staging(Staging& staging) {
  seal_staging(staging);
  if (staging.runs_.empty()) return;
  MLVC_CHECK_MSG(staging.swap_tag_ == swap_count_,
                 "staging flushed across a generation swap — flush_staging() "
                 "before swap_generations()");
  const auto* data = reinterpret_cast<const std::byte*>(staging.sealed_.data());
  std::size_t begin = 0;
  Generation& gen = generations_[produce_index_];
  for (const auto& run : staging.runs_) {
    WallTimer timer;
    {
      std::lock_guard<std::mutex> lock(*interval_locks_[run.interval]);
      append_bytes_locked(gen, run.interval, data + begin, run.end - begin,
                          run.n_records);
    }
    staging.stall_seconds_ += timer.elapsed_seconds();
    ++staging.flush_count_;
    begin = run.end;
  }
  staging.runs_.clear();
  std::vector<std::uint8_t>().swap(staging.sealed_);
}

std::uint64_t MultiLogStore::produced_count(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  const Generation& gen = generations_[produce_index_];
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  return gen.counts[i];
}

void MultiLogStore::queue_eviction(Generation& gen, IntervalId interval,
                                   const std::byte* page) {
  std::lock_guard<std::mutex> lock(evict_mutex_);
  gen.evict_buffer.insert(gen.evict_buffer.end(), page, page + page_size_);
  gen.evict_owners.push_back(interval);
  if (gen.evict_owners.size() >=
      std::max<std::size_t>(1, config_.evict_batch_pages)) {
    flush_evictions(gen);
  }
}

void MultiLogStore::flush_evictions(Generation& gen) {
  // Caller holds evict_mutex_. One contiguous append covers the whole batch
  // — this is what lets log write-back run at streaming bandwidth, per the
  // paper's §V.A.3 design.
  if (gen.evict_owners.empty()) return;
  if (config_.async_io == nullptr) {
    const std::uint64_t offset =
        gen.blob->append(gen.evict_buffer.data(), gen.evict_buffer.size());
    std::uint64_t page_no = offset / page_size_;
    for (IntervalId owner : gen.evict_owners) {
      gen.pages[owner].push_back(page_no++);
    }
    gen.evict_buffer.clear();
    gen.evict_owners.clear();
    return;
  }
  // Background path: reserve the blob range now so every interval's page
  // chain stays in append order (the log is a per-interval record stream —
  // order is load-bearing), then hand the batch to an I/O thread. Readers of
  // these pages are gated behind wait_background_evictions().
  const std::uint64_t offset = gen.blob->reserve(gen.evict_buffer.size());
  std::uint64_t page_no = offset / page_size_;
  for (IntervalId owner : gen.evict_owners) {
    gen.pages[owner].push_back(page_no++);
  }
  auto data = std::make_shared<std::vector<std::byte>>(
      std::move(gen.evict_buffer));
  ssd::Blob* blob = gen.blob;
  pending_evictions_.add(config_.async_io->submit(
      [blob, offset, data] { blob->write(offset, data->data(), data->size()); }));
  gen.evict_buffer.clear();
  gen.evict_owners.clear();
}

void MultiLogStore::wait_background_evictions() {
  pending_evictions_.wait();
}

void MultiLogStore::swap_generations() {
  // Everything queued for eviction must be on storage before the produce
  // generation becomes readable.
  {
    std::lock_guard<std::mutex> lock(evict_mutex_);
    flush_evictions(generations_[produce_index_]);
    wait_background_evictions();
  }
  // The consume generation's data has been fully read; recycle it as the
  // new produce generation.
  const unsigned consume = 1 - produce_index_;
  ++swap_count_;
  reset_generation(generations_[consume],
                   prefix_ + "/log_gen" + std::to_string(swap_count_ % 2) +
                       "_s" + std::to_string(swap_count_));
  produce_index_ = consume;
}

std::uint64_t MultiLogStore::current_count(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  return generations_[1 - produce_index_].counts[i];
}

std::uint64_t MultiLogStore::total_current_count() const {
  const Generation& gen = generations_[1 - produce_index_];
  std::uint64_t total = 0;
  for (std::uint64_t c : gen.counts) total += c;
  return total;
}

std::uint64_t MultiLogStore::current_pages(IntervalId i) const {
  MLVC_CHECK(i < intervals_->count());
  return generations_[1 - produce_index_].pages[i].size();
}

void MultiLogStore::load_interval(IntervalId i,
                                  std::vector<std::byte>& out) const {
  MLVC_CHECK(i < intervals_->count());
  const Generation& gen = generations_[1 - produce_index_];
  // v1 invariant: the physical stream is exactly the logical records. v2
  // streams are the encoded chunk bytes; the decoded size is what the
  // logical counter reports.
  const std::uint64_t logical = gen.counts[i] * config_.record_size;
  const std::uint64_t bytes = config_.format == OnDiskFormat::kV2
                                  ? stream_bytes(gen, i)
                                  : logical;
  if (bytes == 0) return;
  storage_.stats().record_logical_read(ssd::IoCategory::kMessageLog, logical);
  const std::size_t base = out.size();
  out.resize(base + bytes);
  std::byte* dst = out.data() + base;
  std::size_t written = 0;
  // Runs of adjacent page numbers (frequent thanks to batched eviction)
  // coalesce into one op each; the whole interval is then fetched with a
  // single vectored read call. When the record size does not divide the page
  // size, each page carries a zero-padded slack tail that must be skipped,
  // so pages are fetched one op each (still a single vectored call).
  const auto& pages = gen.pages[i];
  std::vector<ssd::ReadOp> ops;
  if (usable_page_bytes_ == page_size_) {
    std::size_t p = 0;
    while (p < pages.size()) {
      std::size_t q = p + 1;
      while (q < pages.size() && pages[q] == pages[q - 1] + 1) ++q;
      ops.push_back({pages[p] * page_size_, dst + written,
                     (q - p) * page_size_});
      written += (q - p) * page_size_;
      p = q;
    }
  } else {
    ops.reserve(pages.size());
    for (std::uint64_t page_no : pages) {
      ops.push_back({page_no * page_size_, dst + written, usable_page_bytes_});
      written += usable_page_bytes_;
    }
  }
  gen.blob->read_multi(ops);
  const std::size_t tail = gen.top_fill[i];
  if (tail > 0) {
    // Resident tail: never hit storage, so no I/O charged.
    std::memcpy(dst + written, gen.top[i].data(), tail);
    written += tail;
  }
  MLVC_CHECK_MSG(written == bytes,
                 "log byte accounting mismatch for interval "
                     << i << ": " << written << " vs " << bytes);
}

void MultiLogStore::reset_all() {
  {
    // Both generations are being discarded; let in-flight writes finish so
    // nothing scribbles on a recycled blob. Their errors are moot.
    std::lock_guard<std::mutex> lock(evict_mutex_);
    try {
      wait_background_evictions();
    } catch (...) {
    }
  }
  ++swap_count_;
  reset_generation(generations_[0],
                   prefix_ + "/log_reset0_s" + std::to_string(swap_count_));
  reset_generation(generations_[1],
                   prefix_ + "/log_reset1_s" + std::to_string(swap_count_));
  produce_index_ = 0;
}

void MultiLogStore::restore_current_interval(
    IntervalId i, std::span<const std::byte> bytes) {
  MLVC_CHECK(i < intervals_->count());
  std::uint64_t n_records = 0;
  if (config_.format == OnDiskFormat::kV2) {
    // The image must be a whole chunk stream (checkpoint CRCs catch tears
    // before this; a torn crash-recovery stream is truncated by the engine's
    // load funnel, not here).
    const auto checked = index_log_chunks(bytes, TornPagePolicy::kThrow);
    n_records = checked.n_records();
  } else {
    MLVC_CHECK_MSG(bytes.size() % config_.record_size == 0,
                   "restore image not a whole number of records");
    n_records = bytes.size() / config_.record_size;
  }
  Generation& gen = generations_[1 - produce_index_];
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  MLVC_CHECK_MSG(gen.counts[i] == 0,
                 "restore into a non-empty interval log; reset_all() first");
  // Full pages to the blob, remainder into the resident tail — the same
  // physical shape a normally-written log has (usable_page_bytes_ of records
  // per page, zero-padded slack when the record size doesn't divide pages).
  std::size_t off = 0;
  std::vector<std::byte> page(page_size_, std::byte{0});
  while (bytes.size() - off >= usable_page_bytes_) {
    std::memcpy(page.data(), bytes.data() + off, usable_page_bytes_);
    const std::uint64_t blob_off = gen.blob->append(page.data(), page_size_);
    gen.pages[i].push_back(blob_off / page_size_);
    off += usable_page_bytes_;
  }
  const std::size_t tail = bytes.size() - off;
  if (tail > 0) {
    gen.top[i].assign(page_size_, std::byte{0});
    std::memcpy(gen.top[i].data(), bytes.data() + off, tail);
    gen.top_fill[i] = tail;
  }
  gen.counts[i] = n_records;
}

std::uint64_t MultiLogStore::drain_produce_interval(
    IntervalId i, std::vector<std::byte>& out) {
  MLVC_CHECK(i < intervals_->count());
  Generation& gen = generations_[produce_index_];
  // Lock order matters: interval first, then evict — the same order the
  // append path uses (queue_eviction runs under the interval lock). Holding
  // the interval lock before flushing evictions means no appender can queue
  // further pages of this interval in between, so the page list read below
  // is complete; holding evict_mutex_ across the reads keeps concurrent
  // drains/appends of *other* intervals from growing gen.pages under us.
  std::lock_guard<std::mutex> lock(*interval_locks_[i]);
  std::lock_guard<std::mutex> evict_lock(evict_mutex_);
  flush_evictions(gen);
  wait_background_evictions();
  const std::uint64_t count = gen.counts[i];
  const std::uint64_t bytes = config_.format == OnDiskFormat::kV2
                                  ? stream_bytes(gen, i)
                                  : count * config_.record_size;
  if (bytes == 0) return 0;
  storage_.stats().record_logical_read(ssd::IoCategory::kMessageLog,
                                       count * config_.record_size);
  const std::size_t base = out.size();
  out.resize(base + bytes);
  std::byte* dst = out.data() + base;
  std::size_t written = 0;
  for (std::uint64_t page_no : gen.pages[i]) {
    gen.blob->read(page_no * page_size_, dst + written, usable_page_bytes_);
    written += usable_page_bytes_;
  }
  if (gen.top_fill[i] > 0) {
    std::memcpy(dst + written, gen.top[i].data(), gen.top_fill[i]);
    written += gen.top_fill[i];
  }
  MLVC_CHECK(written == bytes);
  gen.pages[i].clear();
  gen.top_fill[i] = 0;
  gen.counts[i] = 0;
  return count;
}

}  // namespace mlvc::multilog
