// Small-buffer event callable.
//
// The kernel's hot path schedules millions of short-lived closures per
// simulated run.  std::function heap-allocates any capture larger than
// its tiny SSO budget (16 bytes on libstdc++), which makes scheduling a
// malloc/free pair.  EventFn holds one trivially copyable callable of at
// most 24 bytes in a pointer-aligned inline buffer plus one invoke
// pointer — every closure the program schedules is `this` plus a few
// ids, the largest the timer's [this, node, id] at exactly 24 bytes — so
// it is itself trivially copyable and 32 bytes, two to a cache line:
// scheduling never allocates, and moving or dropping an event is a
// plain copy or nothing.  Callables outside that contract (a
// std::function, a capture that owns a container or is larger) do not
// convert; the converting constructor is constrained, so the mismatch
// is a compile error at the call site.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ammb::sim {

class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 24;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, EventFn> &&
                std::is_trivially_copyable_v<Fn> &&
                sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                std::is_invocable_r_v<void, Fn&>>>
  EventFn(F&& f) {
    // A null function pointer makes an empty EventFn, so the queue's
    // null check fails at schedule time instead of at invocation.
    if constexpr (std::is_pointer_v<Fn>) {
      if (f == nullptr) return;
    }
    ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
    invoke_ = [](void* buffer) { (*std::launder(static_cast<Fn*>(buffer)))(); };
  }

  void operator()() { invoke_(buffer_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  friend bool operator==(const EventFn& f, std::nullptr_t) noexcept {
    return !f;
  }
  friend bool operator!=(const EventFn& f, std::nullptr_t) noexcept {
    return static_cast<bool>(f);
  }

 private:
  void (*invoke_)(void*) = nullptr;
  alignas(kInlineAlign) unsigned char buffer_[kInlineSize];
};

static_assert(std::is_trivially_copyable_v<EventFn>,
              "moving or dropping an event is a plain copy or nothing");
static_assert(sizeof(EventFn) == 32, "a queued callable is half a cache line");

}  // namespace ammb::sim
