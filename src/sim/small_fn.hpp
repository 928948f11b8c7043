// Small-buffer callables for the simulator's hot paths.
//
// Every scheduled event and every message delivery used to carry a
// std::function whose capture state (a `this` pointer plus a couple of ids)
// usually exceeded libstdc++'s tiny inline buffer, costing one heap
// allocation per event on the hottest paths in the simulator.  SmallFn
// keeps the capture in an inline buffer of `Size` bytes aligned to `Align`,
// and only falls back to the per-thread capture arena (sim/arena.hpp) for
// oversized, over-aligned or throwing-move captures, so steady-state
// scheduling and delivery allocate nothing.  An arena-held capture keeps its
// pointer in the first bytes of the buffer, so the object is the buffer plus
// one ops pointer.
//
// Two instances exist, each sized where it is declared:
//   * EventFn (sim/event_queue.hpp) — the scheduler's move-only callable;
//   * Transport::Receiver (net/transport.hpp) — the copyable delivery
//     callable a flood hands to every recipient.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/arena.hpp"

namespace qip {

template <typename Sig, std::size_t Size, std::size_t Align, bool Copyable>
class SmallFn;

template <typename R, typename... Args, std::size_t Size, std::size_t Align,
          bool Copyable>
class SmallFn<R(Args...), Size, Align, Copyable> {
  static_assert(Size >= sizeof(void*) && Align >= alignof(void*),
                "the buffer must hold an arena capture's pointer");

 public:
  static constexpr std::size_t kInlineSize = Size;
  static constexpr std::size_t kInlineAlign = Align;

  /// Whether a capture of type D lives in the inline buffer (otherwise it
  /// takes an arena block).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= Size && alignof(D) <= Align &&
           std::is_nothrow_move_constructible_v<D>;
  }

  SmallFn() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, SmallFn> &&
                std::is_invocable_r_v<R, D&, Args...> &&
                (!Copyable || std::is_copy_constructible_v<D>)>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor) — drop-in for
                    // std::function at every schedule and send call site.
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      void* p = CaptureArena::instance().allocate(sizeof(D));
      set_heap(::new (p) D(std::forward<F>(f)));
    }
    ops_ = ops<D>();
  }

  SmallFn(const SmallFn& other) requires Copyable { copy_from(other); }

  SmallFn& operator=(const SmallFn& other) requires Copyable {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(target(), std::forward<Args>(args)...);
  }

  /// Destroys the captured state immediately.  Cancellation calls this so a
  /// dead event cannot keep its captures alive while the tombstone is still
  /// buried in a scheduler backend.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(target());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    /// nullptr for trivially-destructible inline captures: reset() skips
    /// the call.
    void (*destroy)(void*);
    /// Copy-constructs src's callable into dst.  nullptr for
    /// trivially-copyable inline captures — the dominant case (`this` plus a
    /// few ids) — where copy_from() does a raw buffer copy with no indirect
    /// call; always nullptr in the move-only flavour.
    void (*copy)(SmallFn& dst, const SmallFn& src);
    /// Move-constructs into dst and destroys the source representation.
    /// nullptr wherever a raw buffer copy relocates the capture: trivially
    /// copyable inline captures, and arena captures (only the pointer moves).
    void (*relocate)(SmallFn& dst, SmallFn& src);
    /// true when the capture lives in the arena (target() reads a pointer
    /// out of the buffer instead of pointing at it).
    bool heap;
  };

  void* heap_ptr() const {
    void* p;
    __builtin_memcpy(&p, buf_, sizeof(p));
    return p;
  }

  void set_heap(void* p) { __builtin_memcpy(buf_, &p, sizeof(p)); }

  void* target() {
    return ops_->heap ? heap_ptr() : static_cast<void*>(buf_);
  }

  void copy_from(const SmallFn& other) {
    if (other.ops_ != nullptr) {
      if (other.ops_->copy != nullptr) {
        other.ops_->copy(*this, other);
      } else {
        __builtin_memcpy(buf_, other.buf_, Size);
        ops_ = other.ops_;
      }
    }
  }

  void move_from(SmallFn& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(*this, other);
      } else {
        // Copying the whole buffer unconditionally beats an indirect call
        // that would copy sizeof(D) of it.
        __builtin_memcpy(buf_, other.buf_, Size);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
  }

  template <typename D>
  static R invoke_as(void* p, Args... args) {
    return (*static_cast<D*>(p))(std::forward<Args>(args)...);
  }

  template <typename D, bool Heap>
  static void destroy(void* p) {
    static_cast<D*>(p)->~D();
    if constexpr (Heap) CaptureArena::instance().deallocate(p, sizeof(D));
  }

  template <typename D, bool Heap>
  static void copy(SmallFn& dst, const SmallFn& src) {
    if constexpr (Copyable) {  // never called otherwise: ops<D>() stores null
      if constexpr (Heap) {
        void* p = CaptureArena::instance().allocate(sizeof(D));
        dst.set_heap(::new (p) D(*static_cast<const D*>(src.heap_ptr())));
      } else {
        ::new (static_cast<void*>(dst.buf_))
            D(*static_cast<const D*>(static_cast<const void*>(src.buf_)));
      }
      dst.ops_ = src.ops_;
    }
  }

  template <typename D>
  static void relocate_inline(SmallFn& dst, SmallFn& src) {
    D* s = static_cast<D*>(static_cast<void*>(src.buf_));
    ::new (static_cast<void*>(dst.buf_)) D(std::move(*s));
    s->~D();
    dst.ops_ = src.ops_;
    src.ops_ = nullptr;
  }

  template <typename D>
  static const Ops* ops() {
    if constexpr (!fits_inline<D>()) {
      static constexpr Ops kOps = {&invoke_as<D>, &destroy<D, true>,
                                   Copyable ? &copy<D, true> : nullptr,
                                   nullptr, true};
      return &kOps;
    } else if constexpr (std::is_trivially_copyable_v<D> &&
                         std::is_trivially_destructible_v<D>) {
      static constexpr Ops kOps = {&invoke_as<D>, nullptr, nullptr, nullptr,
                                   false};
      return &kOps;
    } else {
      static constexpr Ops kOps = {&invoke_as<D>, &destroy<D, false>,
                                   Copyable ? &copy<D, false> : nullptr,
                                   &relocate_inline<D>, false};
      return &kOps;
    }
  }

  alignas(Align) unsigned char buf_[Size] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace qip
