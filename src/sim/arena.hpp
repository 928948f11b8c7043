// Bump-chunk arena and the capture pool for in-flight event state.
//
// Every scheduled event or delivery whose capture exceeds its SmallFn's
// inline buffer (sim/small_fn.hpp) used to take one operator-new at schedule
// time and one delete at delivery — the dominant allocation source left in
// the simulator's timed region once the inline fast paths landed.  The
// capture pool removes it:
//
//   * BumpArena hands out raw chunks of memory bump-pointer style.  Nothing
//     is freed individually; the arena releases everything at destruction.
//   * CaptureArena layers size-classed free lists (32B..4KB, powers of two)
//     on top: freeing a capture block pushes it on its class list, the next
//     allocation of that class pops it.  Steady state therefore performs
//     ZERO operator-new calls for event captures — bench/fig_metro pins
//     this with a global allocation counter (docs/SCALE.md).
//
// The pool is thread_local: the parallel harness runs one SimContext per
// worker thread, so thread locality *is* per-SimContext locality, without
// threading an arena pointer through every SmallFn constructor.  Blocks
// over 4KB (none in practice — captures are a few pointers) fall back to
// operator new.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace qip {

class BumpArena {
 public:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  /// Bump-allocates `bytes` aligned to max_align_t.  Never freed
  /// individually; memory returns to the OS when the arena dies.
  void* allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (offset_ + bytes > current_size_) grow(bytes);
    void* p = chunks_.back().get() + offset_;
    offset_ += bytes;
    total_ += bytes;
    return p;
  }

  /// Total bytes handed out (high-water accounting for bench reports).
  std::size_t bytes_allocated() const { return total_; }

 private:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  void grow(std::size_t min_bytes) {
    const std::size_t size = min_bytes > kChunkSize ? min_bytes : kChunkSize;
    chunks_.push_back(std::make_unique<unsigned char[]>(size));
    current_size_ = size;
    offset_ = 0;
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::size_t offset_ = 0;
  std::size_t current_size_ = 0;
  std::size_t total_ = 0;
};

/// Size-classed recycling pool for event/receiver capture blocks.
class CaptureArena {
 public:
  /// The per-thread pool (one sim context per thread in the harness).
  static CaptureArena& instance() {
    thread_local CaptureArena pool;
    return pool;
  }

  void* allocate(std::size_t bytes) {
    const int cls = size_class(bytes);
    if (cls < 0) return ::operator new(bytes);  // oversized: rare, cold
    FreeBlock*& head = free_[static_cast<std::size_t>(cls)];
    if (head != nullptr) {
      FreeBlock* b = head;
      head = b->next;
      ++reused_;
      return b;
    }
    ++fresh_;
    return arena_.allocate(std::size_t{32} << cls);
  }

  void deallocate(void* p, std::size_t bytes) {
    const int cls = size_class(bytes);
    if (cls < 0) {
      ::operator delete(p);
      return;
    }
    auto* b = static_cast<FreeBlock*>(p);
    b->next = free_[static_cast<std::size_t>(cls)];
    free_[static_cast<std::size_t>(cls)] = b;
  }

  /// Pool effectiveness counters for bench reports: blocks served from a
  /// free list vs carved fresh from the arena.
  std::uint64_t reused() const { return reused_; }
  std::uint64_t fresh() const { return fresh_; }
  std::size_t arena_bytes() const { return arena_.bytes_allocated(); }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  // Classes: 32, 64, 128, ..., 4096 bytes.
  static constexpr int kClasses = 8;

  static int size_class(std::size_t bytes) {
    std::size_t size = 32;
    for (int c = 0; c < kClasses; ++c, size <<= 1) {
      if (bytes <= size) return c;
    }
    return -1;
  }

  BumpArena arena_;
  FreeBlock* free_[kClasses] = {};
  std::uint64_t reused_ = 0;
  std::uint64_t fresh_ = 0;
};

}  // namespace qip
