#include "em/buffer_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace tokra::em {

void BufferPool::LruPushFront(std::uint32_t f) {
  Frame& fr = frames_[f];
  fr.lru_prev = kNoFrame;
  fr.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) frames_[lru_head_].lru_prev = f;
  lru_head_ = f;
  if (lru_tail_ == kNoFrame) lru_tail_ = f;
}

void BufferPool::LruRemove(std::uint32_t f) {
  Frame& fr = frames_[f];
  if (fr.lru_prev != kNoFrame) {
    frames_[fr.lru_prev].lru_next = fr.lru_next;
  } else {
    lru_head_ = fr.lru_next;
  }
  if (fr.lru_next != kNoFrame) {
    frames_[fr.lru_next].lru_prev = fr.lru_prev;
  } else {
    lru_tail_ = fr.lru_prev;
  }
  fr.lru_prev = fr.lru_next = kNoFrame;
}

std::uint32_t BufferPool::TryFindVictim() {
  if (!free_.empty()) {
    std::uint32_t v = free_.back();
    free_.pop_back();
    return v;
  }
  // Least recent first; pinned frames are skipped (there are O(1) of them,
  // so this walk is O(1) in practice and the promotion/eviction fast path
  // never scans the whole pool).
  for (std::uint32_t v = lru_tail_; v != kNoFrame; v = frames_[v].lru_prev) {
    if (frames_[v].pins == 0) return v;
  }
  return kNoFrame;
}

void BufferPool::EvictFrame(std::uint32_t v, std::vector<IoRequest>* batch) {
  Frame& f = frames_[v];
  if (!f.valid) return;
  // A borrowed frame never owns modified bytes (mutation upgrades it to an
  // owned copy first), so evicting one writes nothing and never touches
  // the mapping — it is dropped bookkeeping, not a transfer.
  TOKRA_DCHECK(!(f.dirty && f.ext != nullptr));
  if (f.dirty) {
    if (batch != nullptr) {
      batch->push_back(IoRequest{f.id, f.buf.data()});
    } else {
      // The requester is stalled on this write-back before it can reuse
      // the frame: the eviction stall (batched victims are timed at their
      // SubmitWrites in BatchLoad instead).
      obs::ScopedTimer stall(evict_stall_us_);
      if (barrier_ != nullptr) {
        const BlockId id = f.id;  // the barrier speaks logical ids
        barrier_->BeforeHomeWrite({&id, 1});
      }
      device_->Write(
          xlate_ != nullptr ? xlate_->RedirectWrite(f.id) : f.id,
          f.buf.data());
    }
    ++stats_.writes;
  }
  map_.erase(f.id);
  ++stats_.evictions;
  LruRemove(v);
  f.valid = false;
  f.ext = nullptr;
}

std::uint32_t BufferPool::Pin(BlockId id, PinMode mode) {
  TOKRA_CHECK(id != kNullBlock);
  auto it = map_.find(id);
  if (it != map_.end()) {
    Frame& f = frames_[it->second];
    ++f.pins;
    LruTouch(it->second);
    ++stats_.pool_hits;
    return it->second;
  }
  ++stats_.pool_misses;
  std::uint32_t v = FindVictim();
  EvictFrame(v, nullptr);
  Frame& f = frames_[v];
  f.id = id;
  f.valid = true;
  f.dirty = false;
  f.pins = 1;
  LruPushFront(v);
  if (mode == PinMode::kRead) {
    // The device transfer uses the physical location; the frame stays keyed
    // by the logical id the caller pinned.
    const BlockId phys = xlate_ != nullptr ? xlate_->TranslateRead(id) : id;
    if (borrow_ && (f.ext = device_->TryBorrowRead(phys)) != nullptr) {
      ++stats_.borrows;  // zero-copy: the frame needs no buffer at all
    } else {
      device_->Read(phys, OwnedBuf(f));
    }
    ++stats_.reads;
  } else {
    word_t* buf = OwnedBuf(f);
    std::fill(buf, buf + device_->block_words(), 0);
    // A created frame is dirty by definition: its zeros are new content.
    f.dirty = true;
  }
  map_[id] = v;
  return v;
}

void BufferPool::BatchLoad(std::span<const BlockId> ids, bool pin,
                           std::vector<std::uint32_t>* out) {
  if (out != nullptr) {
    out->clear();
    out->reserve(ids.size());
  }
  // Two deferred batches: dirty victims out, then missing blocks in. The
  // frame buffers are victim-to-newcomer 1:1 and SubmitWrites completes
  // before SubmitReads starts, so a buffer is never overwritten before its
  // old contents reached the device.
  std::vector<IoRequest> write_batch, read_batch;
  std::vector<std::uint32_t> unpin_after;  // prefetch: temporary pins
  // A block that is both a dirty victim and a later miss of this batch
  // lives where its RedirectWrite puts it, not where TranslateRead says
  // before that: translated misses are located only after SubmitWrites.
  // (A block loaded by this batch is pinned, so it cannot become a victim
  // later in the batch.)
  std::vector<std::uint32_t> locate_after;
  auto load = [&](std::uint32_t v, BlockId phys) {
    Frame& f = frames_[v];
    if (borrow_ && (f.ext = device_->TryBorrowRead(phys)) != nullptr) {
      ++stats_.borrows;
      ++stats_.reads;
    } else {
      read_batch.push_back(IoRequest{phys, OwnedBuf(f)});
    }
  };
  for (BlockId id : ids) {
    TOKRA_CHECK(id != kNullBlock);
    auto it = map_.find(id);
    if (it != map_.end()) {
      Frame& f = frames_[it->second];
      if (pin) {
        ++f.pins;
        ++stats_.pool_hits;
      }
      LruTouch(it->second);
      if (out != nullptr) out->push_back(it->second);
      continue;
    }
    std::uint32_t v = pin ? FindVictim() : TryFindVictim();
    if (v == kNoFrame) continue;  // prefetch is a hint: skip when pins fill the pool
    EvictFrame(v, &write_batch);
    Frame& f = frames_[v];
    f.id = id;
    f.valid = true;
    f.dirty = false;
    // The pin also protects the frame from being chosen as a victim later
    // in this same batch; prefetched frames give it back below.
    f.pins = 1;
    if (!pin) unpin_after.push_back(v);
    LruPushFront(v);
    map_[id] = v;
    // Borrowed misses need no device round trip at all — the pointer grab
    // IS the transfer; only copying misses join the read batch. Untranslated,
    // borrowing before the deferred victim write-backs is safe even if a
    // victim of this very batch held this block: the pointer is a view of
    // the page cache, so it observes the write-back the moment SubmitWrites
    // below completes — before any caller can dereference it.
    if (xlate_ == nullptr) {
      load(v, id);
    } else {
      locate_after.push_back(v);
    }
    if (pin) {
      ++stats_.pool_misses;
    } else {
      ++stats_.prefetched;
    }
    if (out != nullptr) out->push_back(v);
  }
  {
    // The whole batch stalls on its victims' write-backs before the reads
    // can land in their frames: one eviction-stall sample per batch that
    // actually wrote (clean batches skip the timer entirely).
    obs::ScopedTimer stall(write_batch.empty() ? nullptr : evict_stall_us_);
    if (barrier_ != nullptr && !write_batch.empty()) {
      std::vector<BlockId> ids;
      ids.reserve(write_batch.size());
      for (const IoRequest& r : write_batch) ids.push_back(r.id);
      barrier_->BeforeHomeWrite(ids);
    }
    // Redirect after the barrier: pre-images are about logical blocks, the
    // transfer is about physical locations.
    if (xlate_ != nullptr) {
      for (IoRequest& r : write_batch) r.id = xlate_->RedirectWrite(r.id);
    }
    device_->SubmitWrites(write_batch);
  }
  for (std::uint32_t v : locate_after) {
    load(v, xlate_->TranslateRead(frames_[v].id));
  }
  device_->SubmitReads(read_batch);
  stats_.reads += read_batch.size();
  for (std::uint32_t v : unpin_after) frames_[v].pins = 0;
}

void BufferPool::PinMany(std::span<const BlockId> ids,
                         std::vector<std::uint32_t>* out) {
  TOKRA_CHECK(out != nullptr);
  BatchLoad(ids, /*pin=*/true, out);
}

void BufferPool::Prefetch(std::span<const BlockId> ids) {
  BatchLoad(ids, /*pin=*/false, nullptr);
}

void BufferPool::Unpin(std::uint32_t frame, bool dirty) {
  Frame& f = frames_[frame];
  TOKRA_CHECK(f.pins > 0);
  --f.pins;
  // Dirtying a still-borrowed frame would lose the mutation (write-back
  // flushes the owned buffer): mutators must go through FrameData, which
  // upgrades the frame to an owned copy first.
  TOKRA_DCHECK(!(dirty && f.ext != nullptr));
  if (dirty) f.dirty = true;
}

void BufferPool::FlushAll() {
  // One batch submission for all dirty frames (still one write I/O each).
  std::vector<IoRequest> batch;
  for (Frame& f : frames_) {
    if (f.valid && f.dirty) {
      batch.push_back(IoRequest{f.id, f.buf.data()});
      ++stats_.writes;
      f.dirty = false;
    }
  }
  if (barrier_ != nullptr && !batch.empty()) {
    std::vector<BlockId> ids;
    ids.reserve(batch.size());
    for (const IoRequest& r : batch) ids.push_back(r.id);
    barrier_->BeforeHomeWrite(ids);
  }
  if (xlate_ != nullptr) {
    for (IoRequest& r : batch) r.id = xlate_->RedirectWrite(r.id);
  }
  device_->SubmitWrites(batch);
}

void BufferPool::DropAll() {
  FlushAll();
  for (Frame& f : frames_) {
    TOKRA_CHECK(f.pins == 0);  // dropping while pinned is a bug
    f.valid = false;
    f.id = kNullBlock;
    f.ext = nullptr;
    f.lru_prev = f.lru_next = kNoFrame;
  }
  map_.clear();
  lru_head_ = lru_tail_ = kNoFrame;
  free_.clear();
  for (std::uint32_t i = num_frames(); i > 0; --i) free_.push_back(i - 1);
}

void BufferPool::Invalidate(BlockId id) {
  auto it = map_.find(id);
  if (it == map_.end()) return;
  std::uint32_t v = it->second;
  Frame& f = frames_[v];
  TOKRA_CHECK(f.pins == 0);
  LruRemove(v);
  f.valid = false;
  f.dirty = false;
  f.id = kNullBlock;
  f.ext = nullptr;
  map_.erase(it);
  free_.push_back(v);
}

}  // namespace tokra::em
