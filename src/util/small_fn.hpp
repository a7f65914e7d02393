#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

// Small-buffer-optimized move-only callable, the event-engine replacement
// for std::function on the packet datapath.
//
// Why not std::function: libstdc++'s inline buffer is two words, so a
// capture of a `this` pointer plus a Packet (~96 bytes, what the network's
// loopback and endpoint-delay deliveries schedule) heap-allocates, and the
// copyability requirement forbids move-only captures. SmallFn stores any
// callable whose size fits `InlineBytes` directly in the object (no
// allocation, ever, on the steady-state path) and falls back to the heap
// only for oversized captures. It is move-only, so move-only captures work and no accidental
// deep copies can sneak into the hot path.

namespace vw {

template <class Signature, std::size_t InlineBytes = 48>
class SmallFn;  // undefined; only the R(Args...) specialization exists

template <class R, class... Args, std::size_t InlineBytes>
class SmallFn<R(Args...), InlineBytes> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  SmallFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Invoke the stored callable. Precondition: *this != nullptr (checked by
  /// callers at scheduling time; the call site itself stays branch-light).
  R operator()(Args... args) { return invoke_(storage_, std::forward<Args>(args)...); }

  explicit operator bool() const { return invoke_ != nullptr; }
  friend bool operator==(const SmallFn& f, std::nullptr_t) { return f.invoke_ == nullptr; }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) { return f.invoke_ != nullptr; }

  /// True when the stored callable lives in the inline buffer (diagnostics
  /// and tests; an empty SmallFn reports true).
  bool is_inline() const { return manage_ == nullptr || !heap_allocated_; }

 private:
  struct alignas(std::max_align_t) Storage {
    std::byte bytes[InlineBytes];
  };
  using InvokeFn = R (*)(Storage&, Args&&...);
  // dst == nullptr: destroy src payload. Otherwise: move src payload into
  // dst and destroy the src payload.
  using ManageFn = void (*)(Storage& src, Storage* dst);

  template <class F>
  static constexpr bool fits_inline = sizeof(F) <= InlineBytes &&
                                      alignof(F) <= alignof(Storage) &&
                                      std::is_nothrow_move_constructible_v<F>;

  template <class F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(f));
      invoke_ = [](Storage& s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s.bytes)))(std::forward<Args>(args)...);
      };
      manage_ = [](Storage& src, Storage* dst) {
        Fn* p = std::launder(reinterpret_cast<Fn*>(src.bytes));
        if (dst != nullptr) ::new (static_cast<void*>(dst->bytes)) Fn(std::move(*p));
        p->~Fn();
      };
      heap_allocated_ = false;
    } else {
      ptr_slot(storage_) = new Fn(std::forward<F>(f));
      invoke_ = [](Storage& s, Args&&... args) -> R {
        return (*static_cast<Fn*>(ptr_slot(s)))(std::forward<Args>(args)...);
      };
      manage_ = [](Storage& src, Storage* dst) {
        if (dst != nullptr) {
          ptr_slot(*dst) = ptr_slot(src);
        } else {
          delete static_cast<Fn*>(ptr_slot(src));
        }
      };
      heap_allocated_ = true;
    }
  }

  static void*& ptr_slot(Storage& s) { return *reinterpret_cast<void**>(s.bytes); }

  void move_from(SmallFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.manage_(other.storage_, &storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_allocated_ = other.heap_allocated_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() {
    if (invoke_ == nullptr) return;
    manage_(storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  static_assert(InlineBytes >= sizeof(void*), "inline buffer must hold the heap fallback pointer");

  Storage storage_;
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  bool heap_allocated_ = false;
};

}  // namespace vw
